//! Self-test: the workspace itself is clean under `wd-lint --deny`
//! with the checked-in config and baseline, and the docs name every
//! rule. This is the same invocation CI runs; if a PR introduces a
//! fresh finding, this test (and the CI lint job) fail together.

use std::path::{Path, PathBuf};

use wd_lint::config::Config;
use wd_lint::{lint_workspace, rules};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn workspace_is_clean_under_deny() {
    let root = workspace_root();
    let cfg = Config::load(&root).expect("wd-lint.toml parses");
    let report = lint_workspace(&root, &cfg).expect("workspace walk");
    assert!(
        report.surfaced.is_empty(),
        "workspace has {} unbaselined finding(s):\n{}",
        report.surfaced.len(),
        report
            .surfaced
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity on scan breadth: the walk saw the real workspace, not an
    // empty or truncated tree.
    assert!(report.files >= 50, "only scanned {} files", report.files);
    // The grandfathered doubles and justified findings are suppressed
    // by the baseline, not silently absent.
    assert!(
        report.suppressed.len() >= 2,
        "baseline suppressed only {} finding(s) — stale baseline?",
        report.suppressed.len()
    );
}

#[test]
fn baseline_entries_all_match_a_real_finding() {
    // A baseline entry that no longer matches anything is dead weight
    // and hides future findings in the same (rule, file, fn) bucket.
    // Every baselined count must be consumed by an actual suppressed
    // finding, so the baseline can only shrink as findings are fixed.
    let root = workspace_root();
    let cfg = Config::load(&root).unwrap();
    let report = lint_workspace(&root, &cfg).unwrap();
    assert!(
        report.stale.is_empty(),
        "baseline entries match no finding — prune them: {:?}",
        report.stale
    );
}

#[test]
fn docs_name_every_rule() {
    let root = workspace_root();
    for doc in ["DESIGN.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        assert!(
            text.contains("wd-lint"),
            "{doc} does not mention wd-lint"
        );
        if doc == "DESIGN.md" {
            for r in rules::RULES {
                assert!(text.contains(r.id), "{doc} does not document {}", r.id);
            }
        }
    }
}

#[test]
fn kernel_clippy_configs_match_canonical() {
    let root = workspace_root();
    let cfg = Config::load(&root).unwrap();
    let canonical = std::fs::read(root.join(&cfg.clippy_canonical)).unwrap();
    for krate in &cfg.kernel_crates {
        let copy = root.join("crates").join(krate).join("clippy.toml");
        let bytes = std::fs::read(&copy)
            .unwrap_or_else(|e| panic!("{}: {e}", copy.display()));
        assert_eq!(
            bytes, canonical,
            "crates/{krate}/clippy.toml drifted from {}",
            cfg.clippy_canonical
        );
    }
}
