//! `wd-lint.toml` loading. A hand-rolled TOML subset — `[section]`
//! headers, `key = "string"`, `key = ["a", "b"]`, `#` comments —
//! consistent with the offline shim policy (no registry deps). Parse
//! errors are hard errors: a typo'd config silently linting nothing is
//! worse than a failed run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Analyzer configuration. Defaults mirror the checked-in
/// `wd-lint.toml`, so library users (tests) get sane behavior without
/// a file.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate dir names (under `crates/`) whose code is kernel-bearing:
    /// K-rules run only on files inside these crates.
    pub kernel_crates: Vec<String>,
    /// Path prefixes (repo-relative) where determinism D-rules apply.
    pub determinism_paths: Vec<String>,
    /// Error type names that mark a `Result<_, E>`-returning fn as a
    /// fault path for F-rules.
    pub fault_error_types: Vec<String>,
    /// Per-rule allowlists: rule id -> repo-relative path prefixes
    /// where the rule is suppressed.
    pub allow: BTreeMap<String, Vec<String>>,
    /// Baseline file path (repo-relative); empty disables.
    pub baseline: String,
    /// Canonical kernel-crate clippy config (repo-relative); each
    /// kernel crate's `clippy.toml` must match it byte-for-byte
    /// (WD-C001). Empty disables the check.
    pub clippy_canonical: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            kernel_crates: vec![
                "core".to_string(),
                "baselines".to_string(),
                "multisplit".to_string(),
            ],
            determinism_paths: vec![
                "crates/core/src".to_string(),
                "crates/gpu-sim/src".to_string(),
                "crates/interconnect/src".to_string(),
                "crates/multisplit/src".to_string(),
                "crates/baselines/src".to_string(),
                "crates/hashes/src".to_string(),
                "crates/workloads/src".to_string(),
                "crates/serve/src".to_string(),
            ],
            fault_error_types: vec![
                "OpError".to_string(),
                "TransferError".to_string(),
                "ServeError".to_string(),
            ],
            allow: BTreeMap::new(),
            baseline: "wd-lint.baseline".to_string(),
            clippy_canonical: "clippy-kernel.toml".to_string(),
        }
    }
}

impl Config {
    /// Parse the TOML-subset text. Unknown sections/keys are errors —
    /// they are always typos.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config {
            allow: BTreeMap::new(),
            ..Config::default()
        };
        // sections replace defaults wholesale when present
        let mut saw_kernel = false;
        let mut saw_det = false;
        let mut saw_fault = false;
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((ln, raw)) = lines.next() {
            let mut line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            // multi-line array: keep consuming until brackets balance
            while line.matches('[').count() > line.matches(']').count() {
                let Some((_, cont)) = lines.next() else {
                    return Err(format!("wd-lint.toml:{}: unterminated array", ln + 1));
                };
                line.push(' ');
                line.push_str(strip_comment(cont).trim());
            }
            let err = |m: &str| format!("wd-lint.toml:{}: {}", ln + 1, m);
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| err("unterminated section header"))?;
                section = name.trim().to_string();
                match section.as_str() {
                    "kernel" | "determinism" | "fault" | "allow" | "baseline" | "clippy" => {}
                    other => return Err(err(&format!("unknown section [{other}]"))),
                }
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| err("expected `key = value`"))?;
            let key = key.trim();
            let val = val.trim();
            match (section.as_str(), key) {
                ("kernel", "crates") => {
                    cfg.kernel_crates = parse_array(val).map_err(|m| err(&m))?;
                    saw_kernel = true;
                }
                ("determinism", "paths") => {
                    cfg.determinism_paths = parse_array(val).map_err(|m| err(&m))?;
                    saw_det = true;
                }
                ("fault", "error_types") => {
                    cfg.fault_error_types = parse_array(val).map_err(|m| err(&m))?;
                    saw_fault = true;
                }
                ("allow", rule) => {
                    let rule = rule.trim_matches('"').to_string();
                    cfg.allow.insert(rule, parse_array(val).map_err(|m| err(&m))?);
                }
                ("baseline", "file") => {
                    cfg.baseline = parse_string(val).map_err(|m| err(&m))?;
                }
                ("clippy", "canonical") => {
                    cfg.clippy_canonical = parse_string(val).map_err(|m| err(&m))?;
                }
                _ => return Err(err(&format!("unknown key `{key}` in section [{section}]"))),
            }
        }
        let _ = (saw_kernel, saw_det, saw_fault);
        Ok(cfg)
    }

    /// Load from `root/wd-lint.toml`; defaults when the file is absent.
    pub fn load(root: &Path) -> Result<Config, String> {
        let p: PathBuf = root.join("wd-lint.toml");
        match std::fs::read_to_string(&p) {
            Ok(text) => Config::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(format!("{}: {}", p.display(), e)),
        }
    }

    /// Is `rel` (repo-relative, `/`-separated) inside a kernel crate?
    pub fn is_kernel_path(&self, rel: &str) -> bool {
        self.kernel_crates
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/")))
    }

    /// Is `rel` inside a determinism-scoped path?
    pub fn is_determinism_path(&self, rel: &str) -> bool {
        self.determinism_paths
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
    }

    /// Is `rule` allowlisted for `rel`?
    pub fn is_allowed(&self, rule: &str, rel: &str) -> bool {
        self.allow
            .get(rule)
            .is_some_and(|paths| paths.iter().any(|p| rel.starts_with(p.as_str())))
    }
}

/// Strip a `#` comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `"value"`.
fn parse_string(val: &str) -> Result<String, String> {
    let v = val.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("expected a quoted string, got `{v}`"))
    }
}

/// Parse `["a", "b"]` (single line).
fn parse_array(val: &str) -> Result<Vec<String>, String> {
    let v = val.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [\"...\"] array, got `{v}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_arrays() {
        let cfg = Config::parse(
            r#"
# comment
[kernel]
crates = ["core", "baselines"]
[determinism]
paths = ["crates/core/src"]
[fault]
error_types = ["OpError"]
[allow]
"WD-K002" = ["crates/core/src/delete.rs"] # justified inline
[baseline]
file = "wd-lint.baseline"
[clippy]
canonical = "clippy-kernel.toml"
"#,
        )
        .unwrap();
        assert_eq!(cfg.kernel_crates, vec!["core", "baselines"]);
        assert!(cfg.is_kernel_path("crates/core/src/insert.rs"));
        assert!(!cfg.is_kernel_path("crates/serve/src/server.rs"));
        assert!(cfg.is_determinism_path("crates/core/src/map.rs"));
        assert!(cfg.is_allowed("WD-K002", "crates/core/src/delete.rs"));
        assert!(!cfg.is_allowed("WD-K002", "crates/core/src/insert.rs"));
    }

    #[test]
    fn unknown_key_is_an_error() {
        assert!(Config::parse("[kernel]\ncrate = [\"core\"]").is_err());
        assert!(Config::parse("[kernels]\n").is_err());
    }

    #[test]
    fn defaults_when_sections_missing() {
        let cfg = Config::parse("").unwrap();
        assert!(cfg.is_kernel_path("crates/multisplit/src/warp_agg.rs"));
        assert!(cfg.fault_error_types.iter().any(|t| t == "ServeError"));
    }
}
