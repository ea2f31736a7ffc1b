//! The counting allocator. One test only: the counters are process-wide, so
//! a second test running beside this one would add to them.

use std::hint::black_box;
use wd_benchmark::alloc::{snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_calls_and_bytes_on_every_thread() {
    // alloc
    let before = snapshot();
    let v: Vec<u64> = black_box(Vec::with_capacity(1000));
    let d = snapshot().since(before);
    assert_eq!((d.calls, d.bytes), (1, 8000));

    // realloc counts as one call of the new size
    let mut v = v;
    v.extend(0..1000);
    let before = snapshot();
    v.reserve_exact(1000);
    let d = snapshot().since(before);
    assert_eq!((d.calls, d.bytes), (1, 16_000));

    // alloc_zeroed
    let before = snapshot();
    let z = black_box(vec![0u8; 4096]);
    let d = snapshot().since(before);
    assert_eq!((d.calls, d.bytes), (1, 4096));

    // freeing is not counted
    let before = snapshot();
    drop((v, z));
    assert_eq!(snapshot().since(before).calls, 0);

    // allocations of other threads land in the same counters
    let before = snapshot();
    std::thread::scope(|s| {
        s.spawn(|| drop(black_box(vec![1u8; 10_000])));
    });
    let d = snapshot().since(before);
    assert!(
        d.calls >= 2,
        "the thread's stack bookkeeping and its Vec: {d:?}"
    );
    assert!(d.bytes >= 10_000);
}
