//! The two fixtures every scenario is built on: [`SingleGpuBench`] (one
//! device, the §V-B protocol) and [`NodeBench`] (m devices behind one
//! [`DistributedHashMap`], the §V-C cascades).
//!
//! Sweeps reuse one [`SingleGpuBench`] across all their measurement
//! points: the device pool is sized once for the worst-case (lowest-load)
//! point, the `3n`-word staging buffer lives in the device's scratch
//! arena (which survives [`gpu_sim::DeviceMemory::reset`]), and each point
//! just resets the bump allocator. This removes the per-point
//! allocate+zero of tens of megabytes that used to dominate host
//! wall-clock — and because the pool size never feeds the timing model,
//! modeled rates are bit-identical to the old fresh-device-per-point path.

use crate::p100_with_words;
use gpu_sim::{CounterSnapshot, DevSlice, Device, Schedule};
use interconnect::Topology;
use std::sync::Arc;
use warpdrive::host_ops::Cut;
use warpdrive::{pack, Config, DistributedHashMap, GpuHashMap, OpReport, PerGpuResponse, Resident};
use workloads::Distribution;

/// One (load, group size) measurement of the Fig. 7/8 protocol.
#[derive(Debug, Clone, Copy)]
pub struct SingleGpuMeasurement {
    /// Target load factor.
    pub load: f64,
    /// Group size |g|.
    pub group_size: u32,
    /// Simulated insert rate, ops/s.
    pub insert_rate: f64,
    /// Simulated retrieve rate, ops/s.
    pub retrieve_rate: f64,
    /// Mean probing windows per insert (diagnostic).
    pub insert_steps: f64,
    /// Mean probing windows per query (diagnostic).
    pub retrieve_steps: f64,
    /// Modeled insert kernel time, seconds (functional scale).
    pub insert_sim_s: f64,
    /// Modeled retrieve kernel time, seconds (functional scale).
    pub retrieve_sim_s: f64,
    /// Insert kernel counter totals.
    pub insert_counters: CounterSnapshot,
    /// Retrieve kernel counter totals.
    pub retrieve_counters: CounterSnapshot,
}

/// Reusable single-GPU measurement fixture: one device + staging arena
/// shared by every point of a sweep.
#[derive(Debug)]
pub struct SingleGpuBench {
    dev: Arc<Device>,
    n: usize,
    arena: DevSlice,
    schedule: Option<Schedule>,
}

impl SingleGpuBench {
    /// Builds a fixture able to measure any point with `load >= min_load`
    /// at functional scale `n` (the lowest load needs the largest table).
    ///
    /// # Panics
    /// Panics when the worst-case pool does not fit (callers pick
    /// functional scales far below VRAM).
    #[must_use]
    pub fn for_sweep(n: usize, min_load: f64) -> Self {
        let max_capacity = (n as f64 / min_load).ceil() as usize;
        // worst-case resident set of one point: table (max at min_load) +
        // the 3n-word arena + 2n transient scratch for the cuckoo
        // baseline's staging (its retrieve stages keys and results)
        let dev = p100_with_words(0, max_capacity + 5 * n + 2048);
        let arena = dev.arena_reserve(3 * n).expect("bench staging arena");
        Self {
            dev,
            n,
            arena,
            schedule: None,
        }
    }

    /// Pins the group schedule for every point this fixture measures
    /// (default: the environment's schedule, see
    /// [`gpu_sim::Schedule::from_env`]). Determinism tests pin
    /// [`Schedule::Sequential`] or a seeded schedule so counter totals are
    /// reproducible bit for bit.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Runs the paper's single-GPU protocol (§V-B) for one point: insert
    /// `n` pairs of the given distribution into a table sized for `load`,
    /// then retrieve all of them; report simulated rates and counters.
    /// `modeled_n` drives the >2 GB artifact at paper scale.
    ///
    /// # Panics
    /// Panics if insertion fails (probing exhaustion) — callers choose
    /// loads the scheme supports.
    #[must_use]
    pub fn warpdrive(
        &self,
        dist: Distribution,
        modeled_n: u64,
        load: f64,
        group_size: u32,
        seed: u64,
    ) -> SingleGpuMeasurement {
        let n = self.n;
        // `load` may exceed 1 for duplicate-heavy distributions: it is the
        // ratio of *elements* to capacity; occupancy stays below 1 because
        // duplicates update in place (Fig. 8's "actual occupancy"
        // semantics)
        let capacity = (n as f64 / load).ceil() as usize;
        let modeled_capacity_bytes = ((modeled_n as f64 / load).ceil() as u64) * 8;

        // input generation is not part of the measured protocol
        let pairs = dist.generate(n, seed);
        let words: Vec<u64> = pairs.iter().map(|&(k, v)| pack(k, v)).collect();
        let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();

        self.dev.mem().reset(); // arena survives; bump region reclaimed
        let mut cfg = Config::default()
            .with_group_size(group_size)
            .with_modeled_capacity(modeled_capacity_bytes);
        if let Some(s) = self.schedule {
            cfg = cfg.with_schedule(s);
        }
        let map = GpuHashMap::new(self.dev.clone(), capacity, cfg).expect("table allocation");

        let in_slice = self.arena.sub(0, n);
        self.dev.mem().h2d(in_slice, &words);
        let ins = map
            .insert_device(in_slice, n)
            .unwrap_or_else(|e| panic!("insert failed at load {load}, |g| = {group_size}: {e}"));

        // retrieval of all inserted keys, device-sided
        let q_slice = self.arena.sub(n, n.div_ceil(2));
        let out_slice = self.arena.sub(2 * n, n);
        self.dev.mem().h2d_keys(q_slice, &keys);
        let ret = map.retrieve_device(q_slice, out_slice, n);

        SingleGpuMeasurement {
            load,
            group_size,
            insert_rate: scaled_rate(ins.stats.sim_time, n, modeled_n),
            retrieve_rate: scaled_rate(ret.sim_time, n, modeled_n),
            insert_steps: ins.stats.counters.steps_per_group(),
            retrieve_steps: ret.counters.steps_per_group(),
            insert_sim_s: ins.stats.sim_time,
            retrieve_sim_s: ret.sim_time,
            insert_counters: ins.stats.counters,
            retrieve_counters: ret.counters,
        }
    }

    /// Runs the §V-B protocol against the CUDPP cuckoo baseline on the
    /// shared fixture.
    #[must_use]
    pub fn cuckoo(
        &self,
        dist: Distribution,
        modeled_n: u64,
        load: f64,
        seed: u64,
    ) -> CuckooMeasurement {
        use baselines::CuckooHash;
        let n = self.n;
        let capacity = (n as f64 / load).ceil() as usize;
        let pairs = dist.generate(n, seed);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();

        self.dev.mem().reset();
        let table =
            CuckooHash::new(self.dev.clone(), capacity, seed as u32).expect("cuckoo allocation");
        let ins = table.insert_pairs(&pairs);
        let ret = table.try_retrieve(&keys).expect("cuckoo retrieve").report;

        CuckooMeasurement {
            insert_rate: scaled_rate(ins.stats.sim_time, n, modeled_n),
            retrieve_rate: scaled_rate(ret.time, n, modeled_n),
            failed: ins.failed,
        }
    }
}

/// Reusable multi-GPU fixture: `m` simulated P100s of the Fig. 6 node
/// behind one [`DistributedHashMap`], each sized for `per_gpu` elements
/// at load factor `load` plus the cascades' staging.
#[derive(Debug)]
pub struct NodeBench {
    /// The node.
    pub map: DistributedHashMap,
    per_gpu: usize,
}

impl NodeBench {
    /// Target load factor α of the multi-GPU experiments (§V-C).
    pub const PAPER_LOAD: f64 = 0.95;

    /// Builds the node on fresh devices.
    ///
    /// # Panics
    /// Panics when the tables do not fit their pools (callers pick
    /// functional scales far below VRAM).
    #[must_use]
    pub fn new(m: usize, per_gpu: usize, load: f64, cfg: Config) -> Self {
        let capacity = (per_gpu as f64 / load).ceil() as usize;
        let devices = (0..m)
            .map(|i| p100_with_words(i, capacity + 8 * per_gpu + 4096))
            .collect();
        let map = DistributedHashMap::new(devices, capacity, cfg, Topology::p100_quad(m))
            .expect("node construction");
        Self { map, per_gpu }
    }

    /// §VI's sharded table: [`Self::new`]'s `s` partitions on one device.
    ///
    /// # Panics
    /// As [`Self::new`].
    #[must_use]
    pub(crate) fn one_device(s: usize, per_gpu: usize, load: f64, cfg: Config) -> Self {
        let capacity = (per_gpu as f64 / load).ceil() as usize;
        let dev = p100_with_words(0, s * (capacity + 8 * per_gpu + 4096));
        let topo = Topology::one_device(s, dev.spec());
        let map = DistributedHashMap::new(vec![dev; s], capacity, cfg, topo)
            .expect("node construction");
        Self { map, per_gpu }
    }

    /// The node of the §V-C experiments: α = [`Self::PAPER_LOAD`],
    /// |g| = 4, and the CAS working set of tables holding `n_model` pairs
    /// between them (the >2 GB artifact).
    #[must_use]
    pub fn paper(m: usize, per_gpu: usize, n_model: u64) -> Self {
        let per_gpu_model = (n_model / m as u64) as f64;
        let cfg = Config::default()
            .with_group_size(4)
            .with_modeled_capacity(((per_gpu_model / Self::PAPER_LOAD).ceil() as u64) * 8);
        Self::new(m, per_gpu, Self::PAPER_LOAD, cfg)
    }

    /// The §V-C device-sided protocol: `pairs`, resident `per_gpu` to a
    /// GPU, go through the insert cascade and then all their keys through
    /// the retrieve cascade, each call cut where `cut` says or by the
    /// planner.
    ///
    /// # Panics
    /// Panics if a cascade fails — callers choose loads the scheme supports.
    #[must_use]
    pub fn device_round(
        &mut self,
        pairs: &[(u32, u32)],
        cut: Option<Cut>,
    ) -> (OpReport, PerGpuResponse) {
        let puts: Vec<&[(u32, u32)]> = pairs.chunks(self.per_gpu).collect();
        let ins = self.map.apply_device_sided(Resident::Puts(&puts), cut);
        let ins = ins.expect("insert cascade");
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let keys: Vec<&[u32]> = keys.chunks(self.per_gpu).collect();
        let ret = self.map.apply_device_sided(Resident::Reads(&keys), cut);
        (ins.applied.report, ret.expect("retrieve cascade"))
    }
}

/// A single-GPU map of `capacity` slots on a fresh device with room for
/// the staging of `n` host-sided pairs, whatever the layout.
///
/// # Panics
/// Panics when the table does not fit the pool.
#[must_use]
pub fn host_map(n: usize, capacity: usize, cfg: Config) -> GpuHashMap {
    let dev = p100_with_words(0, 2 * capacity + 3 * n + 4096);
    GpuHashMap::new(dev, capacity, cfg).expect("table allocation")
}

/// Converts a functional-scale kernel time into the modeled-scale rate:
/// per-element cost scales linearly, the fixed launch overhead does not —
/// at the paper's 2²⁷ elements it is invisible, so it must not be charged
/// `modeled_n / n` times by a scaled-down run.
#[must_use]
pub fn scaled_rate(sim_time: f64, n: usize, modeled_n: u64) -> f64 {
    let p100 = gpu_sim::DeviceSpec::p100();
    let per_element = p100.net_of_launches(sim_time, 1).max(0.0) / n as f64;
    let modeled_time = per_element * modeled_n as f64 + p100.launch_overhead;
    modeled_n as f64 / modeled_time
}

/// One CUDPP-cuckoo measurement (same protocol as
/// [`SingleGpuBench::warpdrive`]).
#[derive(Debug, Clone, Copy)]
pub struct CuckooMeasurement {
    /// Simulated insert rate, ops/s.
    pub insert_rate: f64,
    /// Simulated retrieve rate, ops/s.
    pub retrieve_rate: f64,
    /// Pairs that could not be placed.
    pub failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One point on a fixture of its own.
    fn point(load: f64, group_size: u32) -> SingleGpuMeasurement {
        let bench = SingleGpuBench::for_sweep(1 << 14, load);
        bench.warpdrive(Distribution::Unique, 1 << 27, load, group_size, 1)
    }

    #[test]
    fn measurement_produces_sane_rates() {
        let m = point(0.8, 4);
        assert!(m.insert_rate > 1e8, "insert {:.3e}", m.insert_rate);
        assert!(
            m.retrieve_rate > m.insert_rate,
            "retrieve should beat insert"
        );
        assert!(m.insert_steps >= 1.0);
    }

    #[test]
    fn higher_load_is_slower() {
        let (lo, hi) = (point(0.5, 8), point(0.97, 8));
        assert!(hi.insert_rate < lo.insert_rate);
        assert!(hi.insert_steps > lo.insert_steps);
    }

    #[test]
    fn fixture_reuse_is_bit_identical_to_fresh_devices() {
        // The whole point of the arena path: resetting and re-measuring on
        // one device must reproduce the one-shot (fresh device) modeled
        // numbers bit for bit, including a repeat of the same point.
        let bench = SingleGpuBench::for_sweep(1 << 12, 0.5).with_schedule(Schedule::Sequential);
        let a = bench.warpdrive(Distribution::Unique, 1 << 27, 0.8, 4, 7);
        let _mid = bench.warpdrive(Distribution::Unique, 1 << 27, 0.5, 16, 7);
        let b = bench.warpdrive(Distribution::Unique, 1 << 27, 0.8, 4, 7);
        let fresh = SingleGpuBench::for_sweep(1 << 12, 0.8)
            .with_schedule(Schedule::Sequential)
            .warpdrive(Distribution::Unique, 1 << 27, 0.8, 4, 7);
        for (x, y) in [(&a, &b), (&a, &fresh)] {
            assert_eq!(x.insert_rate.to_bits(), y.insert_rate.to_bits());
            assert_eq!(x.retrieve_rate.to_bits(), y.retrieve_rate.to_bits());
            assert_eq!(x.insert_sim_s.to_bits(), y.insert_sim_s.to_bits());
            assert_eq!(x.retrieve_sim_s.to_bits(), y.retrieve_sim_s.to_bits());
            assert_eq!(x.insert_counters, y.insert_counters);
            assert_eq!(x.retrieve_counters, y.retrieve_counters);
        }
    }
}
