//! The grandfathered-findings baseline. Entries key on *(rule, file,
//! enclosing fn)* with a count — not on line numbers — so unrelated
//! edits above a finding don't invalidate the baseline, while new
//! findings of the same rule in the same function still surface (the
//! count is exceeded).
//!
//! Format, one entry per line:
//!
//! ```text
//! WD-F001 crates/core/src/map.rs build_table count=2  # scratch alloc is infallible at fixed capacity
//! ```
//!
//! `count=N` is optional (default 1). `#` starts the mandatory
//! one-line justification — entries without one are rejected, so every
//! grandfathered finding explains itself.

use std::collections::BTreeMap;
use std::path::Path;

use crate::Finding;

/// Parsed baseline: (rule, file, fn) -> allowed count.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: BTreeMap<(String, String, String), usize>,
}

impl Baseline {
    /// Parse baseline text; `Err` carries the offending line.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("baseline line {}: {} (`{}`)", ln + 1, m, raw.trim_end());
            let (entry, justification) = match line.split_once('#') {
                Some((e, j)) => (e.trim(), j.trim()),
                None => return Err(err("missing `# justification`")),
            };
            if justification.is_empty() {
                return Err(err("empty justification"));
            }
            let mut parts = entry.split_whitespace();
            let rule = parts.next().ok_or_else(|| err("missing rule id"))?;
            let file = parts.next().ok_or_else(|| err("missing file path"))?;
            let func = parts.next().ok_or_else(|| err("missing function name"))?;
            let mut count = 1usize;
            if let Some(extra) = parts.next() {
                let n = extra
                    .strip_prefix("count=")
                    .and_then(|n| n.parse::<usize>().ok())
                    .ok_or_else(|| err("trailing field must be count=N"))?;
                count = n;
            }
            if parts.next().is_some() {
                return Err(err("too many fields"));
            }
            *entries
                .entry((rule.to_string(), file.to_string(), func.to_string()))
                .or_insert(0) += count;
        }
        Ok(Baseline { entries })
    }

    /// Load from a path; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Baseline::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(format!("{}: {}", path.display(), e)),
        }
    }

    /// Split `findings` into (surfaced, suppressed, stale): each (rule,
    /// file, fn) bucket suppresses up to its baselined count, oldest
    /// (lowest line) first, so a *new* finding in a grandfathered
    /// function still surfaces once the count is exceeded. `stale` names
    /// every entry whose count no finding used up — the code it
    /// grandfathered is gone, so the entry must go too.
    pub fn apply(&self, mut findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>, Vec<String>) {
        findings.sort_by(|a, b| {
            (&a.file, &a.rule, a.line).cmp(&(&b.file, &b.rule, b.line))
        });
        let mut budget: BTreeMap<(String, String, String), usize> = self.entries.clone();
        let mut surfaced = Vec::new();
        let mut suppressed = Vec::new();
        for f in findings {
            let key = (f.rule.clone(), f.file.clone(), f.func.clone());
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    suppressed.push(f);
                }
                _ => surfaced.push(f),
            }
        }
        let stale = budget
            .into_iter()
            .filter(|&(_, unused)| unused > 0)
            .map(|((rule, file, func), _)| format!("{rule} {file} {func}"))
            .collect();
        (surfaced, suppressed, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, func: &str, line: u32) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            func: func.to_string(),
            message: String::new(),
        }
    }

    #[test]
    fn counts_and_overflow() {
        let b = Baseline::parse(
            "WD-F001 a.rs f count=2  # legacy\nWD-F001 a.rs g  # one-off\n",
        )
        .unwrap();
        let fs = vec![
            finding("WD-F001", "a.rs", "f", 1),
            finding("WD-F001", "a.rs", "f", 2),
            finding("WD-F001", "a.rs", "f", 3),
            finding("WD-F001", "a.rs", "g", 9),
        ];
        let (surfaced, suppressed, stale) = b.apply(fs);
        assert_eq!(suppressed.len(), 3);
        assert_eq!(surfaced.len(), 1);
        assert_eq!(surfaced[0].line, 3); // the newest one overflows
        assert!(stale.is_empty());
    }

    #[test]
    fn unused_entries_are_stale() {
        let b = Baseline::parse("WD-F001 a.rs f count=2  # legacy\nWD-K002 b.rs g  # gone\n")
            .unwrap();
        let (surfaced, suppressed, stale) = b.apply(vec![finding("WD-F001", "a.rs", "f", 1)]);
        assert!(surfaced.is_empty());
        assert_eq!(suppressed.len(), 1);
        // a half-used count is as stale as an unused entry
        assert_eq!(stale, ["WD-F001 a.rs f", "WD-K002 b.rs g"]);
    }

    #[test]
    fn justification_required() {
        assert!(Baseline::parse("WD-F001 a.rs f\n").is_err());
        assert!(Baseline::parse("WD-F001 a.rs f #\n").is_err());
        assert!(Baseline::parse("WD-F001 a.rs f # ok\n").is_ok());
    }
}
