//! Sort-and-compress key-value store (§II's competing design).
//!
//! Keys are sorted together with their values (CUB-style radix sort),
//! equal-key runs are compressed with a prefix scan, and queries binary
//! search the sorted key array. The paper's critique, which this module
//! makes measurable:
//!
//! * **memory** — sorting needs an O(n) double buffer, "effectively
//!   reducing the capacity by a factor of two";
//! * **query time** — O(log n) probes versus the hash map's expected
//!   constant.
//!
//! The build is modeled as 4 radix passes over packed 64-bit pairs (8-bit
//! digits over the 32-bit key), each pass a streaming read + sector-
//! coalesced scatter; queries are billed one uncoalesced transaction per
//! binary-search step.

use gpu_sim::{DevSlice, Device, GroupCtx, GroupSize, KernelStats, LaunchOptions};
use std::sync::Arc;
use warpdrive::{key_of, pack, value_of, EMPTY};

/// Number of radix passes (8-bit digits over 32-bit keys).
const RADIX_PASSES: usize = 4;

/// An immutable sorted key-value store supporting multi-value keys.
#[derive(Debug)]
pub struct SortCompressStore {
    dev: Arc<Device>,
    /// Sorted packed pairs.
    sorted: DevSlice,
    n: usize,
    /// Words consumed including the auxiliary double buffer.
    pub footprint_words: usize,
}

impl SortCompressStore {
    /// Builds the store from `pairs`; returns it with the modeled build
    /// stats.
    ///
    /// # Errors
    /// Propagates device OOM (the build needs `2n` words — the §II
    /// auxiliary-memory cost).
    pub fn build(
        dev: Arc<Device>,
        pairs: &[(u32, u32)],
    ) -> Result<(Self, KernelStats), gpu_sim::OutOfMemory> {
        let n = pairs.len();
        let buf_a = dev.alloc(n.max(1))?;
        let buf_b = dev.alloc(n.max(1))?; // the O(n) auxiliary buffer
        let mut words: Vec<u64> = pairs.iter().map(|&(k, v)| pack(k, v)).collect();
        dev.mem().h2d(buf_a.sub(0, n), &words);

        // functional sort (stable by key) on the host mirror
        words.sort_by_key(|&w| key_of(w));
        dev.mem().h2d(buf_a.sub(0, n), &words);

        // model: RADIX_PASSES × (stream read + sector scatter + stream write)
        let mut stats: Option<KernelStats> = None;
        for _ in 0..RADIX_PASSES {
            let s = dev.launch(
                "radix_pass",
                n.div_ceil(32),
                GroupSize::WARP,
                LaunchOptions::default(),
                |ctx: &GroupCtx| {
                    ctx.bill_stream_bytes(32 * 8); // read
                    ctx.bill_stream_bytes(32 * 8); // write
                                                   // scatter sector misalignment: one extra transaction
                                                   // per 256-bucket boundary a warp straddles (≈2)
                    ctx.bill_transactions(2);
                },
            );
            stats = Some(match stats {
                None => s,
                Some(acc) => acc.merged(&s),
            });
        }
        let stats = stats.expect("at least one pass");
        let _ = buf_b; // retained: the footprint is the point
        Ok((
            Self {
                dev,
                sorted: buf_a.sub(0, n),
                n,
                footprint_words: 2 * n.max(1),
            },
            stats,
        ))
    }

    /// Number of stored pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Binary-search queries with a typed [`warpdrive::OpReport`]:
    /// returns the value of the first matching run element per key (like
    /// the single-value hash map contract).
    ///
    /// # Errors
    /// [`warpdrive::OpError::OutOfMemory`] if the query batch cannot be
    /// staged.
    pub fn try_retrieve(
        &self,
        keys: &[u32],
    ) -> Result<warpdrive::GetResponse, warpdrive::OpError> {
        let (values, stats) = self.retrieve_impl(keys)?;
        Ok(warpdrive::GetResponse {
            values,
            report: warpdrive::OpReport::from_kernel(&stats, keys.len() as u64),
        })
    }

    fn retrieve_impl(
        &self,
        keys: &[u32],
    ) -> Result<(Vec<Option<u32>>, KernelStats), warpdrive::OpError> {
        let nq = keys.len();
        let qwords: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 32).collect();
        let staging = self.dev.alloc_scratch(2 * nq.max(1))?;
        let input = staging.slice().sub(0, nq);
        let out = staging.slice().sub(nq.max(1), nq);
        self.dev.mem().h2d(input, &qwords);

        let sorted = self.sorted;
        let n = self.n;
        let stats = self.dev.launch(
            "sorted_binary_search",
            nq,
            GroupSize::new(1),
            LaunchOptions::default().with_working_set(sorted.bytes()),
            |ctx: &GroupCtx| {
                let key = key_of(ctx.read_stream(input, ctx.group_id()));
                let (mut lo, mut hi) = (0usize, n);
                let mut hit = EMPTY;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let w = ctx.read(sorted, mid); // uncoalesced per step
                    match key_of(w).cmp(&key) {
                        std::cmp::Ordering::Less => lo = mid + 1,
                        std::cmp::Ordering::Greater => hi = mid,
                        std::cmp::Ordering::Equal => {
                            hit = w;
                            hi = mid; // find the first of the run
                        }
                    }
                }
                ctx.write_stream(out, ctx.group_id(), hit);
            },
        );
        let results = self
            .dev
            .mem()
            .d2h(out)
            .into_iter()
            .map(|w| (w != EMPTY).then(|| value_of(w)))
            .collect();
        Ok((results, stats))
    }

    /// All values of one key (the multi-value capability): binary search
    /// plus a run scan. Host-convenience used by the k-mer example.
    #[must_use]
    pub fn retrieve_run(&self, key: u32) -> Vec<u32> {
        let words = self.dev.mem().d2h(self.sorted);
        let start = words.partition_point(|&w| key_of(w) < key);
        words[start..]
            .iter()
            .take_while(|&&w| key_of(w) == key)
            .map(|&w| value_of(w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(pairs: &[(u32, u32)]) -> (SortCompressStore, KernelStats) {
        let dev = Arc::new(Device::with_words(0, pairs.len() * 6 + 256));
        SortCompressStore::build(dev, pairs).unwrap()
    }

    #[test]
    fn round_trip_with_misses() {
        let pairs: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 2 + 1, i)).collect();
        let (store, build_stats) = build(&pairs);
        assert!(build_stats.counters.stream_bytes > 0);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([0, 2, 4]).collect();
        let resp = store.try_retrieve(&keys).unwrap();
        let res = resp.values;
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(res[i], Some(p.1));
        }
        assert!(res[1000..].iter().all(Option::is_none));
        // O(log n) probes per query
        let per_query = resp.report.counters.transactions as f64 / keys.len() as f64;
        assert!(
            (8.0..=12.0).contains(&per_query),
            "binary search depth {per_query}"
        );
    }

    #[test]
    fn footprint_is_double() {
        let pairs: Vec<(u32, u32)> = (0..100u32).map(|i| (i, i)).collect();
        let (store, _) = build(&pairs);
        assert_eq!(store.footprint_words, 200);
    }

    #[test]
    fn multi_value_runs() {
        let pairs = vec![(5, 1), (3, 9), (5, 2), (5, 3), (7, 0)];
        let (store, _) = build(&pairs);
        let mut run = store.retrieve_run(5);
        run.sort_unstable();
        assert_eq!(run, vec![1, 2, 3]);
        assert_eq!(store.retrieve_run(4), Vec::<u32>::new());
        // single-value API returns the first of the run
        let res = store.try_retrieve(&[5, 3]).unwrap().values;
        assert!(res[0].is_some());
        assert_eq!(res[1], Some(9));
    }

    #[test]
    fn empty_store() {
        let (store, _) = build(&[]);
        assert!(store.is_empty());
        let res = store.try_retrieve(&[1]).unwrap().values;
        assert_eq!(res, vec![None]);
    }
}
