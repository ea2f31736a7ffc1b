//! Lint-vs-sanitizer differential: the two mutation doubles that the
//! dynamic sanitizers catch at runtime (`tests/sanitizer.rs`:
//! `synccheck_catches_divergent_ballot` and
//! `racecheck_catches_plain_store_publish`) are flagged *statically*
//! by wd-lint on the very same source lines in
//! `crates/core/src/insert.rs` — no execution, no workload, no
//! sanitizer run. The baseline is deliberately not applied here: the
//! doubles are baselined for `--deny` precisely because they are
//! shipped on purpose, and this test is what proves the rules still
//! see them.

use std::path::{Path, PathBuf};

use wd_lint::config::Config;
use wd_lint::{lint_source, FileCtx};

fn insert_rs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src/insert.rs")
}

/// 1-based line of the first source line containing `marker`.
fn line_of(src: &str, marker: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(marker))
        .map(|i| i as u32 + 1)
        .unwrap_or_else(|| panic!("marker {marker:?} not found in insert.rs"))
}

fn lint_insert_rs() -> (String, Vec<wd_lint::Finding>) {
    let src = std::fs::read_to_string(insert_rs()).unwrap();
    let ctx = FileCtx {
        rel: "crates/core/src/insert.rs".to_string(),
        kernel: true,
        determinism: true,
    };
    let findings = lint_source(&src, &ctx, &Config::default());
    (src, findings)
}

/// synccheck's double (`Mutation::DivergentBallot`): the ballot over
/// `full_mask() & !(1 << r)` is flagged by WD-K001 on the exact line
/// synccheck traps at runtime.
#[test]
fn divergent_ballot_double_is_flagged_statically() {
    let (src, findings) = lint_insert_rs();
    // The double must still exist in the shipped source; if it is ever
    // removed, both this test and the sanitizer differential go stale
    // together.
    assert!(src.contains("Mutation::DivergentBallot"));
    let line = line_of(&src, "ballot_where(active");
    let hit = findings
        .iter()
        .find(|f| f.rule == "WD-K001" && f.line == line)
        .unwrap_or_else(|| {
            panic!("no WD-K001 at insert.rs:{line}; findings: {findings:?}")
        });
    assert!(hit.message.contains("full_mask"), "{hit}");
}

/// racecheck's double (`Mutation::PublishPlainStore`): the plain value
/// store inside the CAS-success arm is flagged by WD-K002 on the line
/// racecheck reports as the lost release edge.
#[test]
fn plain_store_publish_double_is_flagged_statically() {
    let (src, findings) = lint_insert_rs();
    assert!(src.contains("Mutation::PublishPlainStore"));
    let line = line_of(&src, "ctx.write(values, idx, u64::from(value))");
    let hit = findings
        .iter()
        .find(|f| f.rule == "WD-K002" && f.line == line)
        .unwrap_or_else(|| {
            panic!("no WD-K002 at insert.rs:{line}; findings: {findings:?}")
        });
    assert!(hit.message.contains("cas"), "{hit}");
}

/// The correct protocol right next to each double stays clean: the
/// full-group ballot for vacant slots and the publish through the slot
/// view (a CAS from the sentinel) draw no findings, so the rules separate
/// the double from its healthy twin inside the same function. A marker
/// that is gone fails the test (`line_of` panics): update it with the
/// code.
#[test]
fn healthy_twin_lines_stay_clean() {
    let (src, findings) = lint_insert_rs();
    for marker in ["ctx.ballot(|r| is_vacant(window.lane(r)))", "slots.publish(ctx, idx, word)"] {
        let line = line_of(&src, marker);
        assert!(
            findings.iter().all(|f| f.line != line),
            "healthy line insert.rs:{line} ({marker:?}) was flagged"
        );
    }
    // And the file as a whole carries exactly the two double findings
    // plus nothing else from the K family.
    let k: Vec<_> = findings
        .iter()
        .filter(|f| f.rule.starts_with("WD-K"))
        .collect();
    assert_eq!(k.len(), 2, "unexpected K-family findings: {k:?}");
}
