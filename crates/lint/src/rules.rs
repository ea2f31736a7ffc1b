//! The rule passes. Each pass walks the token stream with the scope
//! tree at hand and pushes [`Finding`]s. Rule ids are stable and
//! documented here; DESIGN.md §6.4 carries the narrative versions.
//!
//! | id      | family        | what it catches                                             |
//! |---------|---------------|-------------------------------------------------------------|
//! | WD-K001 | kernel safety | collective with a carved-down participation mask, or a      |
//! |         |               | collective lexically nested under a lane-divergent condition|
//! | WD-K002 | kernel safety | plain `write` publishing a CAS-claimed slot (lost release)  |
//! | WD-K003 | kernel safety | raw atomic CAS-class calls / unchecked access in kernel code|
//! | WD-D001 | determinism   | wall-clock reads (`Instant::now`, `SystemTime::now`)        |
//! | WD-D002 | determinism   | ambient RNG (`thread_rng`, `from_entropy`, `OsRng`)         |
//! | WD-D003 | determinism   | iteration over `HashMap`/`HashSet` (nondeterministic order) |
//! | WD-F001 | fault paths   | `unwrap`/`expect` inside a fault-typed-`Result` fn          |
//! | WD-F002 | fault paths   | `panic!`-family macros inside a fault-typed-`Result` fn     |
//! | WD-C001 | config drift  | kernel-crate `clippy.toml` differs from the canonical copy  |

use std::collections::BTreeSet;

use crate::config::Config;
use crate::lexer::{join, SpannedTok};
use crate::scope::Scopes;
use crate::{FileCtx, Finding};

/// Stable rule metadata, for `--rules` and the docs self-check.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Every rule the analyzer knows. Order is report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "WD-K001",
        summary: "divergent collective: masked ballot/any with a non-full participation mask, \
                  or a collective nested under a lane-divergent condition",
    },
    RuleInfo {
        id: "WD-K002",
        summary: "plain device write publishing a CAS-claimed slot; publish via cas-from-sentinel, \
                  exchange, or write_shared so the release edge exists",
    },
    RuleInfo {
        id: "WD-K003",
        summary: "raw atomic CAS-class call or unchecked slice access inside kernel code; \
                  device memory goes through GroupCtx/window APIs",
    },
    RuleInfo {
        id: "WD-D001",
        summary: "wall-clock read in a determinism-scoped path (breaks seed replay)",
    },
    RuleInfo {
        id: "WD-D002",
        summary: "ambient RNG in a determinism-scoped path (breaks seed replay)",
    },
    RuleInfo {
        id: "WD-D003",
        summary: "iteration over HashMap/HashSet in a determinism-scoped path \
                  (nondeterministic order; use BTreeMap/Vec or sort first)",
    },
    RuleInfo {
        id: "WD-F001",
        summary: "unwrap/expect inside a fn returning a fault-typed Result; propagate the error",
    },
    RuleInfo {
        id: "WD-F002",
        summary: "panic!/unreachable!/todo!/unimplemented! inside a fn returning a fault-typed \
                  Result; return the error instead",
    },
    RuleInfo {
        id: "WD-C001",
        summary: "kernel-crate clippy.toml drifted from the canonical clippy-kernel.toml",
    },
];

/// Collectives whose divergent execution synccheck flags dynamically.
const COLLECTIVES: &[&str] = &[
    "ballot",
    "ballot_where",
    "any",
    "any_where",
    "all",
    "read_window",
    "reload_window",
];

/// Masked collectives that take an explicit participation mask.
const MASKED_COLLECTIVES: &[&str] = &["ballot_where", "any_where"];

/// CAS-class / unchecked tokens banned inside kernel code (WD-K003).
const RAW_DEVICE_TOKENS: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
    "get_unchecked",
    "get_unchecked_mut",
];

/// HashMap/HashSet methods whose results depend on hash-iteration
/// order.
const ORDER_DEPENDENT_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Run every token-level rule over one file.
pub fn run_all(
    toks: &[SpannedTok],
    scopes: &Scopes,
    ctx: &FileCtx,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if ctx.kernel {
        k001_divergent_collectives(toks, scopes, ctx, out);
        k002_plain_store_publish(toks, scopes, ctx, out);
        k003_raw_device_access(toks, scopes, ctx, out);
    }
    if ctx.determinism {
        d001_wall_clock(toks, scopes, ctx, out);
        d002_ambient_rng(toks, scopes, ctx, out);
        d003_hash_iteration(toks, scopes, ctx, out);
    }
    f_rules_fault_paths(toks, scopes, ctx, cfg, out);
}

/// Is token `i` a method-call head: `.name(`?
fn is_method_call(toks: &[SpannedTok], i: usize) -> bool {
    i > 0 && toks[i - 1].is_sym(".") && toks.get(i + 1).is_some_and(|t| t.is_sym("("))
}

/// Text of the first argument of the call opening at `toks[open]`
/// (which must be `(`), stopping at the first depth-1 comma.
fn first_arg_text(toks: &[SpannedTok], open: usize) -> String {
    let mut depth = 0i32;
    let mut end = open;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    end = j;
                    break;
                }
            }
            "," if depth == 1 => {
                end = j;
                break;
            }
            _ => {}
        }
    }
    join(&toks[open + 1..end])
}

/// Number of top-level arguments of the call opening at `toks[open]`.
fn arg_count(toks: &[SpannedTok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    for t in toks.iter().skip(open) {
        match t.text() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => commas += 1,
            _ => {
                if depth >= 1 {
                    any = true;
                }
            }
        }
    }
    if any {
        commas + 1
    } else {
        0
    }
}

/// Does `mask` read as a full participation mask: `full_mask()` or
/// `<ident>.full_mask()`?
fn is_full_mask_expr(mask: &str) -> bool {
    let m = mask.trim();
    if m == "full_mask()" {
        return true;
    }
    m.strip_suffix(".full_mask()")
        .is_some_and(|recv| !recv.is_empty() && recv.chars().all(|c| c.is_alphanumeric() || c == '_'))
}

/// WD-K001: two triggers, both the static twin of synccheck's
/// divergent-collective report.
fn k001_divergent_collectives(
    toks: &[SpannedTok],
    scopes: &Scopes,
    ctx: &FileCtx,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        let name = t.text();
        if !COLLECTIVES.contains(&name) || !is_method_call(toks, i) {
            continue;
        }
        if !scopes.in_kernel(i) || scopes.in_test(i) {
            continue;
        }
        // trigger A: masked collective whose mask is not the full mask
        if MASKED_COLLECTIVES.contains(&name) {
            let mask = first_arg_text(toks, i + 1);
            if !is_full_mask_expr(&mask) {
                out.push(ctx.finding(
                    scopes,
                    i,
                    toks[i].line,
                    "WD-K001",
                    format!(
                        "collective `{name}` called with participation mask `{mask}` — a mask \
                         carved below full_mask() is exactly what synccheck flags at runtime; \
                         every lane of the group must reach every collective"
                    ),
                ));
                continue;
            }
        }
        // trigger B: collective nested under a lane-divergent condition
        let conds = scopes.enclosing_conds(i, true);
        if let Some(bad) = conds.iter().find(|c| c.contains(".lane(")) {
            out.push(ctx.finding(
                scopes,
                i,
                toks[i].line,
                "WD-K001",
                format!(
                    "collective `{name}` nested under lane-divergent condition `{}` — lanes that \
                     fail the condition never reach the collective (synccheck's \
                     divergent-collective report, caught statically)",
                    truncate(bad, 60)
                ),
            ));
        }
    }
}

/// WD-K002: plain `write` inside the success arm of a CAS claim — a
/// `cas`, or the slot view's `claim`, which is the CAS of the key word.
/// The claim's CAS orders the *key* word only; publishing the value word
/// with a plain store drops the release edge racecheck relies on (the
/// `Mutation::PublishPlainStore` shape).
fn k002_plain_store_publish(
    toks: &[SpannedTok],
    scopes: &Scopes,
    ctx: &FileCtx,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("write") || !is_method_call(toks, i) {
            continue;
        }
        if !scopes.in_kernel(i) || scopes.in_test(i) {
            continue;
        }
        // device writes are write(slice, idx, val): 3 args — screens
        // out lock guards (`x.write()`) and io writers (`w.write(buf)`)
        if arg_count(toks, i + 1) < 3 {
            continue;
        }
        let conds = scopes.enclosing_conds(i, true);
        if let Some(claim) = conds
            .iter()
            .find(|c| (c.contains(".cas(") || c.contains(".claim(")) && c.contains("is_ok"))
        {
            out.push(ctx.finding(
                scopes,
                i,
                toks[i].line,
                "WD-K002",
                format!(
                    "plain `write` publishes a slot claimed by `{}` — a plain store after a CAS \
                     claim has no release edge (racecheck's Mutation::PublishPlainStore shape); \
                     publish with a cas from the sentinel, exchange, or write_shared",
                    truncate(claim, 60)
                ),
            ));
        }
    }
}

/// WD-K003: raw CAS-class atomics / unchecked access in kernel code.
fn k003_raw_device_access(
    toks: &[SpannedTok],
    scopes: &Scopes,
    ctx: &FileCtx,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        let name = t.text();
        if !RAW_DEVICE_TOKENS.contains(&name) {
            continue;
        }
        if !scopes.in_kernel(i) || scopes.in_test(i) {
            continue;
        }
        out.push(ctx.finding(
            scopes,
            i,
            toks[i].line,
            "WD-K003",
            format!(
                "`{name}` inside kernel code bypasses the GroupCtx/window APIs — raw CAS-class \
                 calls are uncounted by the timing model and invisible to wd-sanitizer's \
                 happens-before edges"
            ),
        ));
    }
}

/// WD-D001: `Instant::now` / `SystemTime::now`.
fn d001_wall_clock(toks: &[SpannedTok], scopes: &Scopes, ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let is_now = (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && toks.get(i + 1).is_some_and(|n| n.is_sym("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("now"));
        if !is_now || scopes.in_test(i) {
            continue;
        }
        out.push(ctx.finding(
            scopes,
            i,
            toks[i].line,
            "WD-D001",
            format!(
                "`{}::now()` in a determinism-scoped path — wall-clock reads break replay from a \
                 schedule seed; bill modeled time via the clock instead",
                t.text()
            ),
        ));
    }
}

/// WD-D002: ambient RNG entry points.
fn d002_ambient_rng(toks: &[SpannedTok], scopes: &Scopes, ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let name = t.text();
        if !matches!(name, "thread_rng" | "from_entropy" | "OsRng") || scopes.in_test(i) {
            continue;
        }
        out.push(ctx.finding(
            scopes,
            i,
            toks[i].line,
            "WD-D002",
            format!(
                "`{name}` in a determinism-scoped path — ambient randomness breaks replay; seed a \
                 SplitMix64/StdRng from the schedule or fault seed instead"
            ),
        ));
    }
}

/// WD-D003: iteration over `HashMap`/`HashSet` bindings. Two passes:
/// collect identifiers declared/initialized with a hash-map type, then
/// flag order-dependent method calls and `for ... in` loops over them.
fn d003_hash_iteration(
    toks: &[SpannedTok],
    scopes: &Scopes,
    ctx: &FileCtx,
    out: &mut Vec<Finding>,
) {
    let hashy = collect_hash_bindings(toks);
    if hashy.is_empty() {
        return;
    }
    let flag = |out: &mut Vec<Finding>, scopes: &Scopes, i: usize, binding: &str, how: &str| {
        out.push(ctx.finding(
            scopes,
            i,
            toks[i].line,
            "WD-D003",
            format!(
                "{how} over `{binding}`, which is bound to a HashMap/HashSet — hash iteration \
                 order is nondeterministic across runs; use a BTreeMap/Vec or sort before \
                 iterating"
            ),
        ));
    };
    for (i, t) in toks.iter().enumerate() {
        if scopes.in_test(i) {
            continue;
        }
        // `binding.iter()` / `self.binding.keys()` ...
        if ORDER_DEPENDENT_METHODS.contains(&t.text()) && is_method_call(toks, i) && i >= 2 {
            if let crate::lexer::Tok::Ident(recv) = &toks[i - 2].tok {
                if hashy.contains(recv.as_str()) {
                    flag(out, scopes, i, recv, &format!("`.{}()`", t.text()));
                }
            }
        }
        // `for pat in [&[mut]] path.to.binding {`
        if t.is_ident("for") {
            if let Some((j, binding)) = for_loop_iterated_binding(toks, i) {
                if hashy.contains(binding.as_str()) {
                    flag(out, scopes, j, &binding, "`for` loop");
                }
            }
        }
    }
}

/// Identifiers bound (let/field/param/assign) to a HashMap/HashSet.
fn collect_hash_bindings(toks: &[SpannedTok]) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // walk back over a path prefix (`std::collections::`)
        let mut j = i;
        while j >= 2 && toks[j - 1].is_sym("::") {
            j -= 2;
        }
        // skip `&`, `&mut`, `mut` between the binder and the type
        let mut k = j;
        while k >= 1 {
            let p = toks[k - 1].text();
            if p == "&" || p == "mut" {
                k -= 1;
            } else {
                break;
            }
        }
        if k == 0 {
            continue;
        }
        match toks[k - 1].text() {
            // `name: HashMap<...>` — let type ascription, struct
            // field, or fn param
            ":" if k >= 2 => {
                if let crate::lexer::Tok::Ident(name) = &toks[k - 2].tok {
                    set.insert(name.clone());
                }
            }
            // `name = HashMap::new()` / `let mut name = HashMap::...`
            "=" if k >= 2 => {
                if let crate::lexer::Tok::Ident(name) = &toks[k - 2].tok {
                    set.insert(name.clone());
                }
            }
            _ => {}
        }
    }
    set
}

/// For a `for` at `toks[i]`, the binding iterated over: the last
/// identifier between the depth-0 `in` and the loop `{`, provided the
/// expression is a plain (possibly field-projected, possibly
/// borrowed) path — calls like `m.keys()` are left to the method pass.
fn for_loop_iterated_binding(toks: &[SpannedTok], i: usize) -> Option<(usize, String)> {
    let mut depth = 0i32;
    let mut in_at = None;
    for (j, t) in toks.iter().enumerate().skip(i + 1) {
        match t.text() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 => {
                in_at = Some(j);
                break;
            }
            "{" | ";" => return None,
            _ => {}
        }
    }
    let start = in_at? + 1;
    let mut last_ident: Option<(usize, String)> = None;
    for (j, t) in toks.iter().enumerate().skip(start) {
        match t.text() {
            "{" => return last_ident,
            "&" | "mut" | "." | "self" => continue,
            "(" => return None, // a call or tuple — not a plain path
            _ => match &t.tok {
                crate::lexer::Tok::Ident(name) => last_ident = Some((j, name.clone())),
                _ => return None,
            },
        }
    }
    None
}

/// WD-F001/WD-F002: panics inside fault-typed-`Result` fns.
fn f_rules_fault_paths(
    toks: &[SpannedTok],
    scopes: &Scopes,
    ctx: &FileCtx,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    let fault_fn = |i: usize| -> bool {
        scopes.enclosing_fn(i).is_some_and(|(_, ret, _)| {
            ret.contains("Result") && cfg.fault_error_types.iter().any(|t| ret.contains(t.as_str()))
        })
    };
    for (i, t) in toks.iter().enumerate() {
        if scopes.in_test(i) {
            continue;
        }
        let name = t.text();
        if (name == "unwrap" || name == "expect") && is_method_call(toks, i) && fault_fn(i) {
            out.push(ctx.finding(
                scopes,
                i,
                toks[i].line,
                "WD-F001",
                format!(
                    "`.{name}()` inside a fn that returns a fault-typed Result — a panic here \
                     tears down the caller that was promised a typed error; propagate with `?` \
                     or map into the fn's error type"
                ),
            ));
        }
        let panicky = matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|n| n.is_sym("!"));
        if panicky && fault_fn(i) {
            out.push(ctx.finding(
                scopes,
                i,
                toks[i].line,
                "WD-F002",
                format!(
                    "`{name}!` inside a fn that returns a fault-typed Result — fault paths must \
                     degrade through the error type, not abort the process"
                ),
            ));
        }
    }
}

/// Clip long condition text in messages.
fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n).collect();
        format!("{cut}…")
    }
}
