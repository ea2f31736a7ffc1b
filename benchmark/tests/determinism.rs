//! The model pass repeats bit for bit at one rayon worker and refuses to run
//! at any other count. One test: it sets a process-wide variable.

use wd_benchmark::workloads::ycsb::{Stream, A};
use wd_benchmark::workloads::{model_config, Workload};

#[test]
fn the_model_pass_repeats_and_insists_on_one_worker() {
    for refused in [None, Some("2")] {
        match refused {
            Some(n) => std::env::set_var("RAYON_NUM_THREADS", n),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        assert!(
            std::panic::catch_unwind(model_config).is_err(),
            "{refused:?} workers"
        );
    }

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let inputs = Stream::<A>::generate(7);
    let first = Stream::<A>::model(&inputs).expect("oracle agrees");
    let second = Stream::<A>::model(&inputs).expect("oracle agrees");
    assert_eq!(first, second);
    assert_eq!(first.failed, 0);
    let ops_per_launch = first.metrics.get("core.service.ops_per_launch").unwrap();
    assert!(
        ops_per_launch < 4.0,
        "YCSB-A cuts a launch about every second op: {ops_per_launch}"
    );

    // another seed is another stream
    let other = Stream::<A>::model(&Stream::<A>::generate(8)).expect("oracle agrees");
    assert_ne!(
        first.metrics.get("modeled_ops_s"),
        other.metrics.get("modeled_ops_s")
    );
}
