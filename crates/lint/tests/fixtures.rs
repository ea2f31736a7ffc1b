//! The fixtures corpus is the mutation-double suite for the lint
//! itself: every rule has at least one triggering (`pos.rs`) and one
//! clean (`neg.rs`) fixture, so deleting or breaking any single rule
//! makes a test here fail. Exit codes and rule ids are asserted
//! through both the library API and the real `wd-lint` binary.

use std::path::{Path, PathBuf};
use std::process::Command;

use wd_lint::config::Config;
use wd_lint::{check_clippy_drift, lint_source, rules, FileCtx};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Fixture dir name (`wd-k001`) -> rule id (`WD-K001`).
fn rule_of(dir: &Path) -> String {
    dir.file_name()
        .unwrap()
        .to_string_lossy()
        .to_uppercase()
}

fn lint_fixture(path: &Path) -> Vec<wd_lint::Finding> {
    let src = std::fs::read_to_string(path).unwrap();
    let ctx = FileCtx {
        rel: format!("fixtures/{}", path.file_name().unwrap().to_string_lossy()),
        kernel: true,
        determinism: true,
    };
    lint_source(&src, &ctx, &Config::default())
}

fn fixture_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    assert!(!dirs.is_empty(), "fixture corpus missing");
    dirs
}

#[test]
fn every_token_rule_has_pos_and_neg_fixtures() {
    let covered: Vec<String> = fixture_dirs().iter().map(|d| rule_of(d)).collect();
    for r in rules::RULES {
        if r.id == "WD-C001" {
            continue; // config-drift rule is exercised on temp trees below
        }
        assert!(
            covered.contains(&r.id.to_string()),
            "rule {} has no fixture directory",
            r.id
        );
    }
    for dir in fixture_dirs() {
        assert!(dir.join("pos.rs").is_file(), "{dir:?} missing pos.rs");
        assert!(dir.join("neg.rs").is_file(), "{dir:?} missing neg.rs");
    }
}

#[test]
fn positive_fixtures_trigger_exactly_their_rule() {
    for dir in fixture_dirs() {
        let rule = rule_of(&dir);
        let findings = lint_fixture(&dir.join("pos.rs"));
        assert!(
            !findings.is_empty(),
            "{rule}: pos.rs produced no findings"
        );
        for f in &findings {
            assert_eq!(
                f.rule, rule,
                "{rule}: pos.rs produced a stray {} finding: {f}",
                f.rule
            );
            assert!(f.line > 0, "{rule}: finding without a line: {f}");
        }
    }
}

#[test]
fn negative_fixtures_are_clean_under_every_rule() {
    for dir in fixture_dirs() {
        let rule = rule_of(&dir);
        let findings = lint_fixture(&dir.join("neg.rs"));
        assert!(
            findings.is_empty(),
            "{rule}: neg.rs is not clean: {findings:?}"
        );
    }
}

/// The binary end of the contract: `--deny` exits 1 on a positive
/// fixture and prints the rule id; a negative fixture exits 0.
#[test]
fn binary_exit_codes_and_rule_ids() {
    let bin = env!("CARGO_BIN_EXE_wd-lint");
    for dir in fixture_dirs() {
        let rule = rule_of(&dir);
        let run = |file: &str| {
            Command::new(bin)
                .args([
                    "--deny",
                    "--no-baseline",
                    "--force-kernel",
                    "--force-determinism",
                ])
                .arg(dir.join(file))
                .output()
                .unwrap()
        };
        let pos = run("pos.rs");
        assert_eq!(
            pos.status.code(),
            Some(1),
            "{rule}: pos.rs should exit 1 under --deny"
        );
        let stdout = String::from_utf8_lossy(&pos.stdout);
        assert!(
            stdout.contains(&rule),
            "{rule}: binary output does not name the rule:\n{stdout}"
        );
        let neg = run("neg.rs");
        assert_eq!(
            neg.status.code(),
            Some(0),
            "{rule}: neg.rs should exit 0, got {:?}\n{}",
            neg.status.code(),
            String::from_utf8_lossy(&neg.stdout)
        );
    }
}

/// Without `--deny`, findings are advisory: exit 0 either way.
#[test]
fn advisory_mode_exits_zero_on_findings() {
    let bin = env!("CARGO_BIN_EXE_wd-lint");
    let out = Command::new(bin)
        .args(["--no-baseline", "--force-kernel", "--force-determinism"])
        .arg(fixtures_dir().join("wd-k001/pos.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("WD-K001"));
}

/// WD-C001 on synthetic trees: matching copy clean, drifted copy and
/// missing copy flagged.
#[test]
fn clippy_drift_rule() {
    let root = std::env::temp_dir().join(format!("wd-lint-c001-{}", std::process::id()));
    let crate_dir = root.join("crates/core");
    std::fs::create_dir_all(&crate_dir).unwrap();
    std::fs::write(root.join("clippy-kernel.toml"), "disallowed-methods = []\n").unwrap();
    let cfg = Config {
        kernel_crates: vec!["core".to_string()],
        ..Config::default()
    };

    // missing copy
    let missing = check_clippy_drift(&root, &cfg).unwrap();
    assert_eq!(missing.len(), 1, "{missing:?}");
    assert_eq!(missing[0].rule, "WD-C001");

    // drifted copy
    std::fs::write(crate_dir.join("clippy.toml"), "disallowed-methods = [ ] # drift\n").unwrap();
    let drifted = check_clippy_drift(&root, &cfg).unwrap();
    assert_eq!(drifted.len(), 1, "{drifted:?}");
    assert!(drifted[0].message.contains("drifted"));

    // matching copy
    std::fs::write(crate_dir.join("clippy.toml"), "disallowed-methods = []\n").unwrap();
    assert!(check_clippy_drift(&root, &cfg).unwrap().is_empty());

    std::fs::remove_dir_all(&root).ok();
}

/// `--deny` keeps the baseline honest: a live entry still suppresses
/// its finding, but an entry whose finding is gone fails the run until
/// the line is deleted.
#[test]
fn deny_fails_on_a_stale_baseline_entry() {
    let bin = env!("CARGO_BIN_EXE_wd-lint");
    let root = std::env::temp_dir().join(format!("wd-lint-stale-{}", std::process::id()));
    let src = root.join("crates/serve/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::copy(fixtures_dir().join("wd-f002/pos.rs"), src.join("lib.rs")).unwrap();
    std::fs::write(root.join("wd-lint.toml"), "[clippy]\ncanonical = \"\"\n").unwrap();
    let live = "WD-F002 crates/serve/src/lib.rs submit_at  # fixture\n";
    let gone = "WD-K002 crates/serve/src/lib.rs publish  # its code was deleted\n";
    let run = |baseline: &str| {
        std::fs::write(root.join("wd-lint.baseline"), baseline).unwrap();
        Command::new(bin).arg("--deny").arg("--root").arg(&root).output().unwrap()
    };

    let stale = run(&format!("{live}{gone}"));
    assert_eq!(stale.status.code(), Some(1), "a stale entry must fail --deny");
    let stdout = String::from_utf8_lossy(&stale.stdout);
    assert!(stdout.contains("stale entry `WD-K002 crates/serve/src/lib.rs publish`"), "{stdout}");
    assert!(!stdout.contains("WD-F002"), "the live entry still suppresses:\n{stdout}");

    assert_eq!(run(live).status.code(), Some(0), "only live entries: clean");

    std::fs::remove_dir_all(&root).ok();
}

/// Rule ids are unique and well-formed (`WD-<family><3 digits>`).
#[test]
fn rule_ids_are_stable_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for r in rules::RULES {
        assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
        let bytes = r.id.as_bytes();
        assert_eq!(&r.id[..3], "WD-");
        assert!(matches!(bytes[3], b'K' | b'D' | b'F' | b'C'), "{}", r.id);
        assert!(r.id[4..].chars().all(|c| c.is_ascii_digit()), "{}", r.id);
        assert!(!r.summary.is_empty());
    }
}
