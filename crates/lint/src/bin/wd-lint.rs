//! `wd-lint` — static analysis for the WarpDrive workspace.
//!
//! ```text
//! wd-lint [--deny] [--root DIR] [--no-baseline] [--rules] [FILES...]
//!         [--force-kernel] [--force-determinism]
//! ```
//!
//! With no FILES, lints the whole workspace (`crates/*/src`), applies
//! `wd-lint.toml` allowlists and the `wd-lint.baseline`, and checks
//! kernel-crate clippy.toml drift. With FILES, lints exactly those
//! files (no baseline, no drift check) — the mode fixture tests and
//! focused runs use.
//!
//! Exit codes: 0 = clean (or findings without `--deny`), 1 = findings
//! or stale baseline entries under `--deny`, 2 = usage/config/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use wd_lint::config::Config;
use wd_lint::{lint_file, lint_workspace, rules};

struct Args {
    deny: bool,
    root: PathBuf,
    no_baseline: bool,
    force_kernel: bool,
    force_determinism: bool,
    list_rules: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        root: std::env::current_dir().map_err(|e| e.to_string())?,
        no_baseline: false,
        force_kernel: false,
        force_determinism: false,
        list_rules: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--root" => {
                args.root = PathBuf::from(
                    it.next().ok_or_else(|| "--root needs a directory".to_string())?,
                )
            }
            "--no-baseline" => args.no_baseline = true,
            "--force-kernel" => args.force_kernel = true,
            "--force-determinism" => args.force_determinism = true,
            "--rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err("usage: wd-lint [--deny] [--root DIR] [--no-baseline] [--rules] \
                            [--force-kernel] [--force-determinism] [FILES...]"
                    .to_string())
            }
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("wd-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for r in rules::RULES {
            println!("{}  {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    let mut cfg = match Config::load(&args.root) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("wd-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.no_baseline {
        cfg.baseline = String::new();
    }

    let (findings, stale) = if args.files.is_empty() {
        match lint_workspace(&args.root, &cfg) {
            Ok(report) => {
                eprintln!(
                    "wd-lint: scanned {} files, {} finding(s) ({} baselined)",
                    report.files,
                    report.surfaced.len(),
                    report.suppressed.len()
                );
                (report.surfaced, report.stale)
            }
            Err(msg) => {
                eprintln!("wd-lint: {msg}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut all = Vec::new();
        for f in &args.files {
            match lint_file(&args.root, f, &cfg, args.force_kernel, args.force_determinism) {
                Ok(fs) => all.extend(fs),
                Err(msg) => {
                    eprintln!("wd-lint: {msg}");
                    return ExitCode::from(2);
                }
            }
        }
        (all, Vec::new())
    };

    for f in &findings {
        println!("{f}");
    }
    for entry in &stale {
        println!("{}: stale entry `{entry}` matches no finding — delete it", cfg.baseline);
    }
    let problems = findings.len() + stale.len();
    if problems == 0 {
        ExitCode::SUCCESS
    } else if args.deny {
        eprintln!(
            "wd-lint: {} finding(s), {} stale baseline line(s), failing (--deny)",
            findings.len(),
            stale.len()
        );
        ExitCode::from(1)
    } else {
        eprintln!("wd-lint: {problems} problem(s) (advisory; use --deny to fail)");
        ExitCode::SUCCESS
    }
}
