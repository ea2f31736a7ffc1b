//! Positive fixture: WD-K001 (divergent collective), both triggers.
//! Mirrors `Mutation::DivergentBallot`: the CAS-losing lane is
//! dropped from the participation mask before re-balloting.

fn kernel_masked(ctx: &GroupCtx, window: &Window, r: u32) {
    // trigger A: participation mask carved below full_mask()
    let active = ctx.full_mask() & !(1 << r);
    let _ = ctx.ballot_where(active, |rr| is_vacant(window.lane(rr)));
}

fn kernel_nested(ctx: &GroupCtx, window: &Window) {
    // trigger B: collective lexically nested under a lane-divergent
    // condition — lanes failing the condition never reach the ballot
    if window.lane(0) == EMPTY {
        let _ = ctx.ballot(|r| is_vacant(window.lane(r)));
    }
}
