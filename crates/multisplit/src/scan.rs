//! Exclusive prefix scans.
//!
//! The partition-table bookkeeping of §IV-B scans a sender's class counts
//! into the offsets of its partition-ordered buffer. The tables are tiny
//! (m ≤ 4), so this runs on the host; it is the exact counterpart of the
//! device-side scan in the original implementation.

/// Exclusive prefix scan: `out[i] = Σ_{j<i} xs[j]`, `out[0] = 0`.
#[must_use]
pub fn exclusive_scan(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = 0u64;
    for &x in xs {
        out.push(acc);
        acc += x;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exclusive_scan_basics() {
        assert_eq!(exclusive_scan(&[]), Vec::<u64>::new());
        assert_eq!(exclusive_scan(&[5]), vec![0]);
        assert_eq!(exclusive_scan(&[3, 1, 4, 1, 5]), vec![0, 3, 4, 8, 9]);
    }

    proptest! {
        #[test]
        fn scan_last_plus_last_is_total(xs in proptest::collection::vec(0u64..1000, 1..50)) {
            let s = exclusive_scan(&xs);
            let total: u64 = xs.iter().sum();
            prop_assert_eq!(s[s.len() - 1] + xs[xs.len() - 1], total);
        }

        #[test]
        fn scan_is_monotone(xs in proptest::collection::vec(0u64..1000, 1..50)) {
            let s = exclusive_scan(&xs);
            prop_assert!(s.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
