//! Dynamic group-size selection — the paper's §VI future-work item:
//! "A possible direction for future research could be design of a
//! heuristic which dynamically scales the group size |g| with the
//! current load factor."
//!
//! The heuristic minimizes the expected irregular traffic per probe
//! sequence. For a table at load factor α probed with groups of size g:
//!
//! * the probability a g-slot window holds a vacancy is `1 − α^g`, so the
//!   expected number of windows probed is `1 / (1 − α^g)` (geometric);
//! * a sector-aligned window of g slots costs `max(1, g·8/32)` 32-byte
//!   transactions.
//!
//! Minimizing `cost(g) = max(1, g/4) / (1 − α^g)` over
//! `g ∈ {1, 2, 4, 8, 16, 32}` picks the group size with the least
//! expected traffic. A robustness margin slightly penalizes small groups
//! (their probe-count *variance* is higher, and stragglers hold warps).
//!
//! Interesting emergent result, recorded in EXPERIMENTS.md: with
//! sector-aligned windows the optimum pins to the sector width (g = 4)
//! across almost the whole load range — windows of ≤ 4 slots cost one
//! transaction regardless, so nothing smaller can be cheaper, and larger
//! windows only pay off beyond α ≈ 0.99. The Fig. 7 measurements agree.

use gpu_sim::GroupSize;

/// Expected irregular transactions to place/find one key at load `alpha`
/// with group size `g` (the heuristic's cost function).
#[must_use]
pub fn expected_cost(alpha: f64, g: u32) -> f64 {
    let alpha = alpha.clamp(0.0, 0.999_9);
    let p_vacant = 1.0 - alpha.powi(g as i32);
    let txns_per_window = (f64::from(g) / 4.0).max(1.0);
    // straggler margin: high-variance small-group sequences hold their
    // warp hostage; penalize by one std-dev of the geometric
    let mean_windows = 1.0 / p_vacant;
    let std_windows = (alpha.powi(g as i32)).sqrt() / p_vacant;
    txns_per_window * (mean_windows + 0.25 * std_windows)
}

/// The group size minimizing [`expected_cost`] at load `alpha`; ties
/// break toward the sector width (g = 4), which costs nothing extra per
/// window and has the lowest probe variance of the one-transaction
/// group sizes.
///
/// A caller applies it per batch with
/// `map.set_group_size(recommend_group_size(map.load_factor()))`. That is
/// safe at batch boundaries because the probing *slot sequence* is
/// group-size independent (§IV-A's consistency property, certified by
/// `probing::slot_sequence_is_group_size_independent`): a key inserted
/// with |g| = 8 is found by a |g| = 2 query.
#[must_use]
pub fn recommend_group_size(alpha: f64) -> GroupSize {
    let order = [4u32, 2, 8, 1, 16, 32]; // preference among equal costs
    let mut best = order[0];
    let mut best_cost = expected_cost(alpha, best);
    for &g in &order[1..] {
        let c = expected_cost(alpha, g);
        if c < best_cost {
            best = g;
            best_cost = c;
        }
    }
    GroupSize::new(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::insert::InsertOutcome;
    use crate::map::GpuHashMap;
    use std::sync::Arc;
    use workloads::Distribution;

    /// One batch at the group size recommended for the current load.
    fn insert_adaptive(map: &mut GpuHashMap, pairs: &[(u32, u32)]) -> InsertOutcome {
        map.set_group_size(recommend_group_size(map.load_factor()));
        map.insert_pairs(pairs).unwrap()
    }

    #[test]
    fn cost_function_shape() {
        // more load → more cost at fixed g
        assert!(expected_cost(0.9, 4) > expected_cost(0.5, 4));
        // g=1 costs more than g=4 at high load (same transaction price,
        // more windows)
        assert!(expected_cost(0.95, 1) > expected_cost(0.95, 4));
        // g=32 moves 8 sectors per window: worse than 4 everywhere sane
        assert!(expected_cost(0.8, 32) > expected_cost(0.8, 4));
    }

    #[test]
    fn recommendation_matches_fig7_optimum() {
        // the paper's measured optimum is |g| in {2,4,8}; with aligned
        // windows our cost model pins to the sector width
        for alpha in [0.1, 0.4, 0.7, 0.9, 0.95, 0.99] {
            let g = recommend_group_size(alpha).get();
            assert!((2..=8).contains(&g), "alpha {alpha}: recommended {g}");
        }
    }

    #[test]
    fn adaptive_map_round_trips_across_group_switches() {
        let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 16));
        let mut map = GpuHashMap::new(dev, 4096, Config::default()).unwrap();
        let pairs = Distribution::Unique.generate(3900, 3); // → α ≈ 0.95
        // insert in rising-load batches; group size may change in between
        let mut sizes = Vec::new();
        for chunk in pairs.chunks(500) {
            sizes.push(recommend_group_size(map.load_factor()).get());
            insert_adaptive(&mut map, chunk);
        }
        // every key is found regardless of which |g| inserted it
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        map.set_group_size(recommend_group_size(map.load_factor()));
        let res = map.try_retrieve(&keys).unwrap().values;
        assert!(res.iter().all(Option::is_some));
        // recommendations stayed in the sane band
        assert!(sizes.iter().all(|g| (2..=8).contains(g)), "{sizes:?}");
        // and tightened as the table filled (monotone non-decreasing
        // confidence is not required, but the first and last must be sane)
        assert_eq!(*sizes.last().unwrap(), 4);
    }

    /// The heuristic reads α from the map's one occupancy split, so a
    /// migration whose `&self` puts never finalize cannot show it keys of
    /// two tables over the slots of one (α > 1 before `Table`).
    #[test]
    fn recommendation_never_sees_overfull_load_during_a_migration() {
        let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 16));
        let mut map = GpuHashMap::new(dev, 1024, Config::default()).unwrap();
        let pairs = Distribution::Unique.generate(1800, 5);
        insert_adaptive(&mut map, &pairs[..800]);
        assert!(map.request_grow().unwrap());
        for chunk in pairs[800..].chunks(100) {
            insert_adaptive(&mut map, chunk);
            let alpha = map.load_factor();
            assert!(alpha <= 1.0, "α = {alpha} mid-migration");
        }
        assert!((map.load_factor() - 1800.0 / 2048.0).abs() < 1e-12);
    }

    #[test]
    fn adaptive_never_loses_to_worst_fixed_choice() {
        // compare net of the fixed launch overheads: adaptive issues one
        // launch per batch, which at paper scale is invisible
        let p100 = gpu_sim::DeviceSpec::p100();
        let n = 3000;
        let pairs = Distribution::Unique.generate(n, 9);
        let run_fixed = |g: u32| {
            let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 16));
            let cfg = Config::default().with_group_size(g);
            let map = GpuHashMap::new(dev, 4096, cfg).unwrap();
            p100.net_of_launches(map.insert_pairs(&pairs).unwrap().stats.sim_time, 1)
        };
        let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 16));
        let mut adaptive = GpuHashMap::new(dev, 4096, Config::default()).unwrap();
        let mut t_adaptive = 0.0;
        for chunk in pairs.chunks(512) {
            let t = insert_adaptive(&mut adaptive, chunk).stats.sim_time;
            t_adaptive += p100.net_of_launches(t, 1);
        }
        let worst = run_fixed(32).max(run_fixed(1));
        assert!(
            t_adaptive < worst,
            "adaptive {t_adaptive:.3e} vs worst fixed {worst:.3e}"
        );
    }
}
