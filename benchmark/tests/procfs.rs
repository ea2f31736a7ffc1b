//! The `/proc` readers, on fixed text and on this process.

use wd_benchmark::procfs::{cpu_times, parse_cpu_times, parse_vm_hwm_mib, peak_rss_mib};

#[test]
fn vm_hwm_is_read_in_mib() {
    let status =
        "Name:\twd-benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  104552 kB\nVmRSS:\t   90000 kB\n";
    assert_eq!(parse_vm_hwm_mib(status), Some(104_552.0 / 1024.0));
    assert_eq!(parse_vm_hwm_mib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
}

#[test]
fn cpu_times_survive_a_hostile_command_name() {
    // field 2 holds spaces and parentheses; utime = 250 ticks, stime = 75
    let stat = "4242 (a b) c) d) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 3 0 12345 1000000 500";
    let t = parse_cpu_times(stat).expect("well-formed stat line");
    assert_eq!((t.user_s, t.sys_s), (2.5, 0.75));
    assert_eq!(parse_cpu_times("no parenthesis here"), None);
    assert_eq!(parse_cpu_times("1 (x) R 1 2 3"), None);
}

#[test]
fn this_process_has_memory_and_cpu_time() {
    assert!(peak_rss_mib() > 0.5);
    let before = cpu_times();
    // 10 ms ticks: burn well over one
    let start = std::time::Instant::now();
    let mut x = 0u64;
    while start.elapsed().as_millis() < 60 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    let spent = cpu_times().since(before);
    assert!(spent.user_s + spent.sys_s >= 0.02, "{spent:?}");
}
