//! Wing–Gong linearizability checker over recorded histories.
//!
//! The checker implements the classic Wing–Gong search: a history is
//! linearizable iff some total order of its operations (1) respects real
//! time — an op that responded before another was invoked comes first —
//! and (2) is a legal sequential execution of the object. Keys of an
//! open-addressing map are independent, so the search decomposes into one
//! sub-history per key, each checked against *last-write-wins register*
//! semantics (single-value maps) or *multiset register* semantics
//! (multi-maps).
//!
//! Sequential LWW-register semantics per key:
//!
//! * `Insert{v}` → `Inserted{new_slot}` is legal iff `new_slot` equals
//!   "the key was absent"; the state becomes `Some(v)`.
//! * `Retrieve` → `Found{v}` is legal iff the state is `Some(v)`;
//!   `NotFound` iff the state is `None`.
//! * `Erase` → `Erased{hit}` is legal iff `hit` equals "the key was
//!   present"; the state becomes `None`.
//! * `InsertFailed` (probing exhausted) leaves the state unchanged.
//!
//! The search memoizes on (remaining-operation set, register state), so
//! histories of concurrent identical ops don't explode factorially. At
//! most 128 operations per key are supported — recorded test histories
//! stay far below that.
//!
//! # Parallelism
//!
//! Per-key sub-histories are independent by construction, so
//! [`check_linearizable`] and [`check_linearizable_multi`] fan the
//! per-key searches across the rayon pool once a history is large enough
//! to amortize the spawn cost ([`PARALLEL_THRESHOLD`] operations).
//! Verdicts are **identical** to the serial path: every key is checked
//! regardless of other keys' outcomes and the reported violation is
//! always the smallest offending key's (the same deterministic choice the
//! serial scan makes). The always-serial entry points
//! [`check_linearizable_serial`] / [`check_linearizable_multi_serial`]
//! exist for differential testing and for callers already saturating the
//! thread pool.

use crate::history::{OpEvent, OpKind, OpResponse};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// Histories with fewer total operations than this are checked serially
/// even via the parallel entry points: scoped-thread spawn costs more
/// than the whole search at this size.
const PARALLEL_THRESHOLD: usize = 64;

/// Evidence that a history is not linearizable.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The key whose sub-history admits no linearization.
    pub key: u32,
    /// That key's complete sub-history (sorted by invocation).
    pub ops: Vec<OpEvent>,
    /// Human-readable summary.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "history not linearizable for key {}: {}", self.key, self.detail)?;
        for op in &self.ops {
            writeln!(
                f,
                "  [{:>4},{:>4}] {:?} -> {:?}",
                op.invoked, op.responded, op.kind, op.response
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for Violation {}

/// Checks a single-value map history (LWW register per key), fanning the
/// independent per-key searches across the rayon pool for large
/// histories.
///
/// # Errors
/// Returns the smallest offending key's sub-history when no
/// linearization exists.
pub fn check_linearizable(history: &[OpEvent]) -> Result<(), Violation> {
    check_by_key(history, &None::<u32>, apply_single, history.len() >= PARALLEL_THRESHOLD)
}

/// Checks a multi-map history (multiset register per key), fanning the
/// independent per-key searches across the rayon pool for large
/// histories.
///
/// # Errors
/// Returns the smallest offending key's sub-history when no
/// linearization exists.
pub fn check_linearizable_multi(history: &[OpEvent]) -> Result<(), Violation> {
    check_by_key(history, &Vec::<u32>::new(), apply_multi, history.len() >= PARALLEL_THRESHOLD)
}

/// [`check_linearizable`], forced onto the calling thread. Verdicts are
/// identical to the parallel path by construction; this entry point
/// exists for differential testing and for callers that are themselves
/// a rayon worker.
///
/// # Errors
/// Returns the smallest offending key's sub-history when no
/// linearization exists.
pub fn check_linearizable_serial(history: &[OpEvent]) -> Result<(), Violation> {
    check_by_key(history, &None::<u32>, apply_single, false)
}

/// [`check_linearizable_multi`], forced onto the calling thread (see
/// [`check_linearizable_serial`]).
///
/// # Errors
/// Returns the smallest offending key's sub-history when no
/// linearization exists.
pub fn check_linearizable_multi_serial(history: &[OpEvent]) -> Result<(), Violation> {
    check_by_key(history, &Vec::<u32>::new(), apply_multi, false)
}

/// Sequential LWW-register step; `None` means the (op, response) pair is
/// illegal in `state`.
fn apply_single(state: &Option<u32>, op: &OpEvent) -> Option<Option<u32>> {
    match (&op.kind, &op.response) {
        (OpKind::Insert { value }, OpResponse::Inserted { new_slot }) => {
            (*new_slot == state.is_none()).then_some(Some(*value))
        }
        (OpKind::Insert { .. }, OpResponse::InsertFailed) => Some(*state),
        (OpKind::Retrieve, OpResponse::Found { value }) => {
            (*state == Some(*value)).then_some(*state)
        }
        (OpKind::Retrieve, OpResponse::NotFound) => state.is_none().then_some(*state),
        (OpKind::Erase, OpResponse::Erased { hit }) => {
            (*hit == state.is_some()).then_some(None)
        }
        _ => None, // mixed-up kind/response — never legal
    }
}

/// Sequential multiset-register step (state is the sorted value multiset).
#[allow(clippy::ptr_arg)] // the generic search wants Fn(&S, _) with S = Vec<u32>
fn apply_multi(state: &Vec<u32>, op: &OpEvent) -> Option<Vec<u32>> {
    match (&op.kind, &op.response) {
        (OpKind::InsertMulti { value }, OpResponse::Inserted { new_slot: true }) => {
            let mut next = state.clone();
            let at = next.partition_point(|&v| v < *value);
            next.insert(at, *value);
            Some(next)
        }
        (OpKind::InsertMulti { .. }, OpResponse::InsertFailed) => Some(state.clone()),
        (OpKind::RetrieveAll, OpResponse::FoundAll { values }) => {
            (values == state).then(|| state.clone())
        }
        _ => None,
    }
}

fn check_by_key<S, F>(
    history: &[OpEvent],
    initial: &S,
    apply: F,
    parallel: bool,
) -> Result<(), Violation>
where
    S: Clone + Eq + Hash + Send + Sync,
    F: Fn(&S, &OpEvent) -> Option<S> + Sync,
{
    // key-ordered: the smallest offending key is the deterministic
    // violation choice on both the serial and the parallel path
    let mut per_key: BTreeMap<u32, Vec<OpEvent>> = BTreeMap::new();
    for ev in history {
        per_key.entry(ev.key).or_default().push(ev.clone());
    }
    let mut buckets: Vec<(u32, Vec<OpEvent>)> = per_key.into_iter().collect();
    for (key, ops) in &mut buckets {
        ops.sort_by_key(|op| op.invoked);
        assert!(
            ops.len() <= 128,
            "linearizability checker supports at most 128 ops per key (key {key} has {})",
            ops.len()
        );
    }
    let check_one = |(key, ops): &(u32, Vec<OpEvent>)| -> Option<Violation> {
        if search(ops, initial.clone(), &apply) {
            None
        } else {
            Some(Violation {
                key: *key,
                ops: ops.clone(),
                detail: "no operation order consistent with real time yields these responses"
                    .to_owned(),
            })
        }
    };
    let first = if parallel && buckets.len() > 1 {
        // every key is checked (no early exit) — the verdict and the
        // chosen violation still match the serial scan because the
        // order-preserving collect lets us take the smallest key's
        buckets
            .par_iter()
            .map(check_one)
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .next()
    } else {
        buckets.iter().map(check_one).find(Option::is_some).flatten()
    };
    match first {
        Some(v) => Err(v),
        None => Ok(()),
    }
}

/// Wing–Gong search: DFS over linearization prefixes. A remaining op may
/// be linearized next iff its invocation precedes every remaining op's
/// response (otherwise some completed op would be ordered after it).
fn search<S, F>(ops: &[OpEvent], initial: S, apply: &F) -> bool
where
    S: Clone + Eq + Hash,
    F: Fn(&S, &OpEvent) -> Option<S>,
{
    let full: u128 = if ops.len() == 128 {
        u128::MAX
    } else {
        (1u128 << ops.len()) - 1
    };
    let mut memo: HashSet<(u128, S)> = HashSet::new();
    dfs(ops, full, initial, apply, &mut memo)
}

fn dfs<S, F>(
    ops: &[OpEvent],
    remaining: u128,
    state: S,
    apply: &F,
    memo: &mut HashSet<(u128, S)>,
) -> bool
where
    S: Clone + Eq + Hash,
    F: Fn(&S, &OpEvent) -> Option<S>,
{
    if remaining == 0 {
        return true;
    }
    if !memo.insert((remaining, state.clone())) {
        return false; // already explored this configuration
    }
    let min_resp = iter_bits(remaining)
        .map(|i| ops[i].responded)
        .min()
        .expect("non-empty remaining set");
    for i in iter_bits(remaining) {
        // real-time rule: i can go first only if nothing remaining
        // responded before i was invoked
        if ops[i].invoked > min_resp {
            continue;
        }
        if let Some(next) = apply(&state, &ops[i]) {
            if dfs(ops, remaining & !(1u128 << i), next, apply, memo) {
                return true;
            }
        }
    }
    false
}

fn iter_bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(i)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(key: u32, kind: OpKind, response: OpResponse, invoked: u64, responded: u64) -> OpEvent {
        OpEvent {
            key,
            kind,
            response,
            invoked,
            responded,
        }
    }

    #[test]
    fn sequential_round_trip_is_linearizable() {
        let h = vec![
            ev(1, OpKind::Insert { value: 10 }, OpResponse::Inserted { new_slot: true }, 0, 1),
            ev(1, OpKind::Retrieve, OpResponse::Found { value: 10 }, 2, 3),
            ev(1, OpKind::Erase, OpResponse::Erased { hit: true }, 4, 5),
            ev(1, OpKind::Retrieve, OpResponse::NotFound, 6, 7),
        ];
        check_linearizable(&h).unwrap();
    }

    #[test]
    fn stale_read_after_response_is_flagged() {
        // insert responded at t=1, yet a later retrieve misses: illegal
        let h = vec![
            ev(5, OpKind::Insert { value: 1 }, OpResponse::Inserted { new_slot: true }, 0, 1),
            ev(5, OpKind::Retrieve, OpResponse::NotFound, 2, 3),
        ];
        let v = check_linearizable(&h).unwrap_err();
        assert_eq!(v.key, 5);
        assert_eq!(v.ops.len(), 2);
    }

    #[test]
    fn concurrent_retrieve_may_see_either_state() {
        // retrieve overlaps the insert: both Found and NotFound are legal
        for resp in [OpResponse::NotFound, OpResponse::Found { value: 3 }] {
            let h = vec![
                ev(2, OpKind::Insert { value: 3 }, OpResponse::Inserted { new_slot: true }, 0, 5),
                ev(2, OpKind::Retrieve, resp, 1, 4),
            ];
            check_linearizable(&h).unwrap();
        }
    }

    #[test]
    fn two_new_slots_without_erase_is_flagged() {
        // the duplicate-slot anomaly the CAS re-check prevents: two
        // concurrent inserts of one key both claim fresh slots
        let h = vec![
            ev(9, OpKind::Insert { value: 1 }, OpResponse::Inserted { new_slot: true }, 0, 4),
            ev(9, OpKind::Insert { value: 2 }, OpResponse::Inserted { new_slot: true }, 1, 5),
        ];
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn concurrent_same_key_inserts_one_claim_many_updates_ok() {
        // the racing-batch shape: one NewSlot, the rest updates, all
        // concurrent
        let mut h = vec![ev(
            7,
            OpKind::Insert { value: 0 },
            OpResponse::Inserted { new_slot: true },
            0,
            20,
        )];
        for i in 1..10u32 {
            h.push(ev(
                7,
                OpKind::Insert { value: i },
                OpResponse::Inserted { new_slot: false },
                u64::from(i),
                20 + u64::from(i),
            ));
        }
        check_linearizable(&h).unwrap();
    }

    #[test]
    fn erase_conflicting_hit_report_is_flagged() {
        let h = vec![
            ev(3, OpKind::Insert { value: 4 }, OpResponse::Inserted { new_slot: true }, 0, 1),
            ev(3, OpKind::Erase, OpResponse::Erased { hit: false }, 2, 3),
        ];
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn keys_are_independent() {
        // a violation on key 1 is reported even among clean key-2 traffic
        let h = vec![
            ev(2, OpKind::Insert { value: 8 }, OpResponse::Inserted { new_slot: true }, 0, 1),
            ev(1, OpKind::Retrieve, OpResponse::Found { value: 1 }, 2, 3),
            ev(2, OpKind::Retrieve, OpResponse::Found { value: 8 }, 4, 5),
        ];
        let v = check_linearizable(&h).unwrap_err();
        assert_eq!(v.key, 1);
    }

    #[test]
    fn multimap_multiset_semantics() {
        let h = vec![
            ev(1, OpKind::InsertMulti { value: 5 }, OpResponse::Inserted { new_slot: true }, 0, 1),
            ev(1, OpKind::InsertMulti { value: 5 }, OpResponse::Inserted { new_slot: true }, 2, 3),
            ev(
                1,
                OpKind::RetrieveAll,
                OpResponse::FoundAll { values: vec![5, 5] },
                4,
                5,
            ),
        ];
        check_linearizable_multi(&h).unwrap();
        // losing one of the duplicates is a violation
        let bad = vec![
            h[0].clone(),
            h[1].clone(),
            ev(
                1,
                OpKind::RetrieveAll,
                OpResponse::FoundAll { values: vec![5] },
                4,
                5,
            ),
        ];
        assert!(check_linearizable_multi(&bad).is_err());
    }

    #[test]
    fn concurrent_multimap_read_sees_a_prefix() {
        // retrieve concurrent with the second insert: [5] and [5,6] legal,
        // [6] alone is not (first insert already responded)
        for (vals, ok) in [
            (vec![5], true),
            (vec![5, 6], true),
            (vec![6], false),
            (vec![], false),
        ] {
            let h = vec![
                ev(1, OpKind::InsertMulti { value: 5 }, OpResponse::Inserted { new_slot: true }, 0, 1),
                ev(1, OpKind::InsertMulti { value: 6 }, OpResponse::Inserted { new_slot: true }, 2, 6),
                ev(
                    1,
                    OpKind::RetrieveAll,
                    OpResponse::FoundAll { values: vals.clone() },
                    3,
                    5,
                ),
            ];
            assert_eq!(
                check_linearizable_multi(&h).is_ok(),
                ok,
                "values {vals:?} expected ok={ok}"
            );
        }
    }

    #[test]
    fn memoization_handles_many_identical_concurrent_ops() {
        // 60 fully concurrent inserts of one key, one new_slot: the memo
        // keeps this polynomial instead of 60! orders
        let mut h = vec![ev(
            1,
            OpKind::Insert { value: 0 },
            OpResponse::Inserted { new_slot: true },
            0,
            1000,
        )];
        for i in 1..60u64 {
            h.push(ev(
                1,
                OpKind::Insert { value: i as u32 },
                OpResponse::Inserted { new_slot: false },
                i,
                1000 + i,
            ));
        }
        check_linearizable(&h).unwrap();
    }
}
