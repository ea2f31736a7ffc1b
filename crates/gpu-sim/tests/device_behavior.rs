//! Behavioural tests of the simulated device beyond the per-module units:
//! allocator alignment, launch edge cases, counter/timing consistency.

use gpu_sim::{Device, DeviceSpec, GroupSize, LaunchOptions, Schedule, TimingModel};
use proptest::prelude::*;

#[test]
fn allocations_are_sector_aligned() {
    let dev = Device::with_words(0, 1024);
    // odd-sized allocations must not shift later ones off sector
    let _a = dev.alloc(3).unwrap();
    let b = dev.alloc(8).unwrap();
    let _c = dev.alloc(5).unwrap();
    let d = dev.alloc(8).unwrap();
    dev.mem().fill(b, 0);
    dev.mem().fill(d, 0);
    // verify via transaction counting: an 8-word window on an aligned
    // slice starting at index 0 touches exactly 2 sectors
    for slice in [b, d] {
        let stats = dev.launch(
            "probe",
            1,
            GroupSize::new(8),
            LaunchOptions::default().with_schedule(Schedule::Sequential),
            |ctx| {
                let _ = ctx.read_window(slice, 0);
            },
        );
        assert_eq!(stats.counters.transactions, 2, "slice misaligned");
    }
}

#[test]
fn zero_group_launch_is_a_noop() {
    let dev = Device::with_words(0, 64);
    let stats = dev.launch(
        "empty",
        0,
        GroupSize::new(4),
        LaunchOptions::default(),
        |_| panic!("kernel must not run"),
    );
    assert_eq!(stats.counters.groups, 0);
    // only the fixed launch overhead remains
    assert!((stats.sim_time - dev.spec().launch_overhead).abs() < 1e-12);
}

#[test]
fn sequential_and_parallel_launches_agree_on_counters() {
    let dev = Device::with_words(0, 4096);
    let buf = dev.alloc(2048).unwrap();
    dev.mem().fill(buf, 0);
    let run = |sequential: bool| {
        let opts = if sequential {
            LaunchOptions::default().with_schedule(Schedule::Sequential)
        } else {
            LaunchOptions::default()
        };
        dev.launch("sweep", 256, GroupSize::new(8), opts, |ctx| {
            let _ = ctx.read_window(buf, ctx.group_id() * 8);
            let _ = ctx.read_stream(buf, ctx.group_id());
        })
    };
    let seq = run(true);
    let par = run(false);
    assert_eq!(seq.counters, par.counters);
    assert!((seq.sim_time - par.sim_time).abs() < 1e-15);
}

#[test]
fn concurrent_exchange_preserves_value_multiset() {
    // atomicExch chains: the set of values in slots ∪ {final carried} is
    // conserved — here every group deposits and the sum is checkable
    let dev = Device::with_words(0, 256);
    let slots = dev.alloc(16).unwrap();
    dev.mem().fill(slots, 0);
    dev.launch(
        "exch",
        1024,
        GroupSize::new(1),
        LaunchOptions::default(),
        |ctx| {
            // each group adds its id via an exchange-accumulate loop
            let mut carry = ctx.group_id() as u64 + 1;
            let slot = ctx.group_id() % 16;
            carry = ctx.exchange(slots, slot, carry);
            let _ = ctx.atomic_add(slots, (slot + 1) % 16, carry);
        },
    );
    // no assertion on exact distribution — just that the device survived
    // 2048 racing atomics and the words are readable
    let words = dev.mem().d2h(slots);
    assert_eq!(words.len(), 16);
}

#[test]
fn stats_name_and_groups_recorded() {
    let dev = Device::with_words(0, 64);
    let stats = dev.launch(
        "my_kernel",
        17,
        GroupSize::new(2),
        LaunchOptions::default(),
        |_| {},
    );
    assert_eq!(stats.name, "my_kernel");
    assert_eq!(stats.num_groups, 17);
    assert_eq!(stats.group_size.get(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Timing is monotone in every counter dimension.
    #[test]
    fn timing_is_monotone(
        txns in 0u64..1_000_000,
        stream in 0u64..1_000_000,
        cas in 0u64..1_000_000,
        extra in 1u64..1_000_000,
    ) {
        let model = TimingModel::new(DeviceSpec::p100());
        let base = gpu_sim::CounterSnapshot {
            transactions: txns,
            stream_bytes: stream,
            cas_ops: cas,
            ..Default::default()
        };
        let t0 = model
            .kernel_time(base, GroupSize::new(4), 1024, 0)
            .total();
        for bump in 0..3 {
            let mut more = base;
            match bump {
                0 => more.transactions += extra,
                1 => more.stream_bytes += extra,
                _ => more.cas_ops += extra,
            }
            let t1 = model
                .kernel_time(more, GroupSize::new(4), 1024, 0)
                .total();
            prop_assert!(t1 >= t0);
        }
    }

    /// Window transaction counts equal the touched-sector count for any
    /// base/window combination.
    #[test]
    fn window_transactions_match_sector_math(
        base in 0usize..512,
        g in proptest::sample::select(vec![1u32, 2, 4, 8, 16, 32]),
    ) {
        let dev = Device::with_words(0, 1024);
        let slice = dev.alloc(512).unwrap(); // aligned offset
        dev.mem().fill(slice, 0);
        let stats = dev.launch(
            "w",
            1,
            GroupSize::new(g),
            LaunchOptions::default().with_schedule(Schedule::Sequential),
            |ctx| {
                let _ = ctx.read_window(slice, base);
            },
        );
        // expected: number of distinct sectors covered by the (wrapped)
        // window of g slots starting at base % 512
        let start = base % 512;
        let mut sectors = std::collections::HashSet::new();
        for r in 0..g as usize {
            sectors.insert(((start + r) % 512) / 4);
        }
        prop_assert_eq!(stats.counters.transactions, sectors.len() as u64);
    }
}
