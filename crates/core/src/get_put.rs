//! The fused get + upsert kernel: one launch that looks up a list of keys
//! and applies a list of pairs.
//!
//! Insertions and queries on *distinct* keys may race freely (§IV-A), so
//! nothing but the launch boundary separates a retrieve launch from an
//! insert launch over disjoint key sets — and a launch boundary is what a
//! small batch pays most for (§V-B). This kernel runs both in one grid of
//! three contiguous sections, selected by `group_id` against two launch
//! parameters (no tag word, no extra stream traffic):
//!
//! * **get** groups `[0, gets)` run the retrieval probe
//!   ([`crate::retrieve`]) and write their answer;
//! * **upsert** groups `[gets, gets + upserts)` — the keys both looked up
//!   and written — run the insertion probe ([`crate::insert`]) and answer
//!   with the pair it replaced, so such a key is one table visit instead
//!   of two;
//! * **put** groups, the rest, run the insertion probe and answer nothing.
//!
//! Each key is in exactly one section, so no group's answer depends on
//! how the launch interleaves. A get or put group bills exactly what it
//! bills in [`crate::retrieve::retrieve_kernel`] or
//! [`crate::insert::insert_kernel`]; an upsert group bills the insert
//! plus, on an SOA hit, the value-word read the separate get would have
//! made.
//!
//! Input: `gets` query words (key in the high 32 bits), then
//! `upserts + puts` packed pairs. Output: `gets + upserts` words,
//! `pack(key, value)` for a key that was present before the launch,
//! [`EMPTY`] otherwise.

use crate::config::Mutation;
use crate::entry::{key_of, EMPTY};
use crate::history::HistoryRecorder;
use crate::insert::{insert_one, GroupResult, InsertOutcome, InsertTally};
use crate::retrieve::{record_retrieve, retrieve_one};
use crate::table::Table;
use gpu_sim::{DevSlice, GroupCtx, GroupSize};

/// Launches the fused kernel over the words of `input`, one group of `g`
/// lanes per word: the first `gets` are looked up, the rest inserted, and
/// the first `out.len()` — the gets and the upserts — answered into
/// `out`. The outcome counts the insertions; its stats cover the whole
/// launch.
pub(crate) fn get_put_kernel(
    table: &Table,
    g: GroupSize,
    input: DevSlice,
    out: DevSlice,
    gets: usize,
    recorder: Option<&HistoryRecorder>,
) -> InsertOutcome {
    let answered = out.len();
    let tally = InsertTally::default();
    let stats = table.launch("warpdrive_get_put", input.len(), g, |ctx: &GroupCtx| {
        let id = ctx.group_id();
        let history = recorder.map(|rec| (rec, rec.invoke()));
        let word = ctx.read_stream(input, id);
        if id < gets {
            let result = retrieve_one(ctx, table, key_of(word));
            record_retrieve(history, key_of(word), result);
            ctx.write_stream(out, id, result);
            return;
        }
        let upsert = id < answered;
        let r = insert_one(ctx, table, word, upsert);
        if upsert {
            let old = match r {
                GroupResult::Updated { old } => old.unwrap_or(EMPTY),
                GroupResult::NewSlot { .. } | GroupResult::Failed => EMPTY,
            };
            // MUTATION DOUBLE (`Mutation::UpsertReturnsNew`): answer with
            // the pair just written instead of the one it replaced.
            let answer = if table.mutation() == Some(Mutation::UpsertReturnsNew) {
                word
            } else {
                old
            };
            // one visit, two logical ops: the lookup, then the write
            record_retrieve(history, key_of(word), answer);
            ctx.write_stream(out, id, answer);
        }
        tally.note(false, word, r, history);
    });
    tally.outcome(stats)
}
