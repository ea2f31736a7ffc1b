//! Positive fixture: WD-K002 (plain store publishes a CAS-claimed
//! slot). Mirrors `Mutation::PublishPlainStore`: the value word
//! is published with a plain store, dropping the release edge.

fn publish(ctx: &GroupCtx, keys: DevSlice, values: DevSlice, idx: usize) {
    if ctx.cas(keys, idx, expected, word).is_ok() {
        ctx.write(values, idx, value);
    }
}
