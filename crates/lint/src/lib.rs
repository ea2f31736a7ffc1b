//! wd-lint: the workspace static analyzer.
//!
//! Every correctness weapon before this one was *dynamic* — wd-sanitizer,
//! wd-chaos, and the Wing–Gong checker all need a seed × schedule sweep
//! to execute. wd-lint is the static complement: a hand-rolled lexer
//! ([`lexer`]), a brace/scope tracker ([`scope`]), and call-site passes
//! ([`rules`]) that catch the same bug *classes* at `cargo`-speed,
//! before a single schedule runs:
//!
//! - **K-rules** (kernel safety): the static twins of synccheck's
//!   divergent-collective report and racecheck's lost-release-edge
//!   report, plus raw-atomic/unchecked access that bypasses the counted
//!   GroupCtx/window APIs.
//! - **D-rules** (determinism): wall-clock reads, ambient RNG, and
//!   hash-order iteration in paths that must replay from a seed.
//! - **F-rules** (fault-path hygiene): panics inside functions that
//!   promise a typed error.
//! - **C-rules** (config drift): kernel-crate `clippy.toml` copies must
//!   match the canonical `clippy-kernel.toml`.
//!
//! Findings are suppressed either by a per-rule path allowlist in
//! `wd-lint.toml` or by the checked-in [`baseline`] of grandfathered
//! findings (each with a mandatory one-line justification). CI runs
//! `wd-lint --deny`, so a new finding is a build break — and so is a
//! baseline entry that no longer matches one.

pub mod baseline;
pub mod config;
pub mod lexer;
pub mod rules;
pub mod scope;

use std::path::{Path, PathBuf};

use baseline::Baseline;
use config::Config;
use scope::Scopes;

/// One reported finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (`WD-K001`, ...).
    pub rule: String,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function name (`-` at module scope) — the baseline key.
    pub func: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} [fn {}] {}",
            self.file, self.line, self.rule, self.func, self.message
        )
    }
}

/// Per-file context rules consult.
pub struct FileCtx {
    /// Repo-relative path, `/`-separated.
    pub rel: String,
    /// K-rules apply (file is inside a kernel crate).
    pub kernel: bool,
    /// D-rules apply (file is inside a determinism-scoped path).
    pub determinism: bool,
}

impl FileCtx {
    /// Build a finding anchored at token `i`.
    pub(crate) fn finding(
        &self,
        scopes: &Scopes,
        i: usize,
        line: u32,
        rule: &str,
        message: String,
    ) -> Finding {
        let func = scopes
            .enclosing_fn(i)
            .map(|(name, _, _)| name.to_string())
            .unwrap_or_else(|| "-".to_string());
        Finding {
            rule: rule.to_string(),
            file: self.rel.clone(),
            line,
            func,
            message,
        }
    }
}

/// Lint one file's source text. `ctx` decides which rule families run;
/// config allowlists are applied, the baseline is not (that is a
/// workspace-level concern).
pub fn lint_source(src: &str, ctx: &FileCtx, cfg: &Config) -> Vec<Finding> {
    let toks = lexer::lex(src);
    let scopes = Scopes::build(&toks);
    let mut out = Vec::new();
    rules::run_all(&toks, &scopes, ctx, cfg, &mut out);
    out.retain(|f| !cfg.is_allowed(&f.rule, &f.file));
    out.sort_by_key(|f| (f.line, f.rule.clone()));
    out
}

/// Lint a file on disk, deriving the rule-family context from `cfg`
/// unless forced.
pub fn lint_file(
    root: &Path,
    path: &Path,
    cfg: &Config,
    force_kernel: bool,
    force_determinism: bool,
) -> Result<Vec<Finding>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {}", path.display(), e))?;
    let rel = rel_path(root, path);
    let ctx = FileCtx {
        kernel: force_kernel || cfg.is_kernel_path(&rel),
        determinism: force_determinism || cfg.is_determinism_path(&rel),
        rel,
    };
    Ok(lint_source(&src, &ctx, cfg))
}

/// Repo-relative, `/`-separated path (falls back to the file name when
/// `path` is outside `root`).
fn rel_path(root: &Path, path: &Path) -> String {
    let canon_root = root.canonicalize().unwrap_or_else(|_| root.to_path_buf());
    let canon = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let rel = canon
        .strip_prefix(&canon_root)
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|_| {
            canon
                .file_name()
                .map(PathBuf::from)
                .unwrap_or_else(|| canon.clone())
        });
    rel.to_string_lossy().replace('\\', "/")
}

/// The result of a workspace lint.
pub struct WorkspaceReport {
    /// Findings that survived allowlists and the baseline.
    pub surfaced: Vec<Finding>,
    /// Findings eaten by the baseline.
    pub suppressed: Vec<Finding>,
    /// Baseline entries (`RULE file fn`) that no finding used up.
    pub stale: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

/// Walk `root`'s workspace sources (`crates/*/src/**/*.rs` — vendored
/// `shims/`, `target/`, tests, and examples are out of scope), run all
/// rules plus the WD-C001 clippy-drift check, and apply the baseline.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<WorkspaceReport, String> {
    let mut findings = Vec::new();
    let mut files = 0usize;
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {}", crates_dir.display(), e))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in &crate_dirs {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for file in rust_files(&src)? {
            findings.extend(lint_file(root, &file, cfg, false, false)?);
            files += 1;
        }
    }
    findings.extend(check_clippy_drift(root, cfg)?);
    let baseline = if cfg.baseline.is_empty() {
        Baseline::default()
    } else {
        Baseline::load(&root.join(&cfg.baseline))?
    };
    let (mut surfaced, suppressed, stale) = baseline.apply(findings);
    surfaced.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(WorkspaceReport {
        surfaced,
        suppressed,
        stale,
        files,
    })
}

/// WD-C001: every kernel crate's `clippy.toml` must exist and match
/// the canonical copy byte-for-byte. (The checked-in copies are
/// symlinks, so drift normally *can't* happen — this catches a symlink
/// replaced by an edited file, or a new kernel crate without one.)
pub fn check_clippy_drift(root: &Path, cfg: &Config) -> Result<Vec<Finding>, String> {
    let mut out = Vec::new();
    if cfg.clippy_canonical.is_empty() {
        return Ok(out);
    }
    let canonical_path = root.join(&cfg.clippy_canonical);
    let canonical = std::fs::read_to_string(&canonical_path)
        .map_err(|e| format!("{}: {}", canonical_path.display(), e))?;
    for krate in &cfg.kernel_crates {
        let rel = format!("crates/{krate}/clippy.toml");
        let path = root.join(&rel);
        let mk = |message: String| Finding {
            rule: "WD-C001".to_string(),
            file: rel.clone(),
            line: 1,
            func: "-".to_string(),
            message,
        };
        match std::fs::read_to_string(&path) {
            Ok(text) if text == canonical => {}
            Ok(_) => out.push(mk(format!(
                "kernel-crate clippy.toml drifted from the canonical {} — edit the canonical \
                 copy instead (the per-crate files are symlinks to it)",
                cfg.clippy_canonical
            ))),
            Err(_) => out.push(mk(format!(
                "kernel crate `{krate}` has no clippy.toml — symlink {} here so the \
                 disallowed-method list applies",
                cfg.clippy_canonical
            ))),
        }
    }
    Ok(out)
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {}", d.display(), e))?;
        for e in entries.filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(kernel: bool, determinism: bool) -> FileCtx {
        FileCtx {
            rel: "crates/test/src/lib.rs".to_string(),
            kernel,
            determinism,
        }
    }

    #[test]
    fn masked_collective_flagged() {
        let src = r#"
fn kernel(ctx: &GroupCtx) {
    let active = ctx.full_mask() & !(1 << r);
    let _ = ctx.ballot_where(active, |rr| is_vacant(w.lane(rr)));
}
"#;
        let f = lint_source(src, &ctx(true, false), &Config::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "WD-K001");
        assert_eq!(f[0].func, "kernel");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn full_mask_collective_clean() {
        let src = r#"
fn kernel(ctx: &GroupCtx) {
    let _ = ctx.ballot_where(ctx.full_mask(), |rr| is_vacant(w.lane(rr)));
    let dup = ctx.ballot(|r| key_of(window.lane(r)) == key);
}
"#;
        assert!(lint_source(src, &ctx(true, false), &Config::default()).is_empty());
    }

    #[test]
    fn host_code_not_kernel_scoped() {
        let src = "fn host() { let active = 1; x.ballot_where(active, f); }";
        assert!(lint_source(src, &ctx(true, false), &Config::default()).is_empty());
    }

    #[test]
    fn plain_store_publish_flagged_and_sentinel_cas_clean() {
        let bad = r#"
fn kernel(ctx: &GroupCtx) {
    if ctx.cas(keys, idx, expected, word).is_ok() {
        ctx.write(values, idx, val);
    }
}
"#;
        let f = lint_source(bad, &ctx(true, false), &Config::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "WD-K002");
        // the slot view's `claim` is the same CAS behind a helper
        let helper = bad.replace("ctx.cas(keys, idx", "slots.claim(ctx, idx");
        let f = lint_source(&helper, &ctx(true, false), &Config::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "WD-K002");
        let good = r#"
fn kernel(ctx: &GroupCtx) {
    if ctx.cas(keys, idx, expected, word).is_ok() {
        let _ = ctx.cas(values, idx, EMPTY, val);
        ctx.write_shared(values, idx, val);
    }
    ctx.write(values, idx, val);
}
"#;
        assert!(lint_source(good, &ctx(true, false), &Config::default()).is_empty());
    }

    #[test]
    fn fault_path_unwrap_flagged_outside_tests_only() {
        let src = r#"
fn put(&mut self) -> Result<PutResponse, OpError> {
    let x = self.scratch.lock().unwrap();
    Ok(x)
}
fn infallible() -> u32 { y.unwrap() }
#[cfg(test)]
mod tests {
    fn t() -> Result<(), OpError> { z.unwrap(); Ok(()) }
}
"#;
        let f = lint_source(src, &ctx(false, false), &Config::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "WD-F001");
        assert_eq!(f[0].func, "put");
    }

    #[test]
    fn hash_iteration_flagged_btree_clean() {
        let src = r#"
struct S { pages: HashMap<u64, u32>, ordered: BTreeMap<u64, u32> }
fn tally(s: &S) -> u64 {
    let mut sum = 0;
    for (k, v) in &s.pages { sum += v; }
    for (k, v) in &s.ordered { sum += v; }
    sum
}
"#;
        let f = lint_source(src, &ctx(false, true), &Config::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "WD-D003");
    }

    #[test]
    fn rel_path_outside_root() {
        let rel = rel_path(Path::new("/nonexistent-root"), Path::new("/tmp/x.rs"));
        assert!(rel.ends_with("x.rs"));
    }
}
