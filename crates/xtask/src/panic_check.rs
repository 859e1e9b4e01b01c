//! `cargo xtask panic-check` — dataplane panic-freedom analyzer.
//!
//! Built on the shared [`crate::callgraph`] machinery: parses the hot-path
//! crates, builds the intra-workspace call graph, and walks reachability
//! from the dataplane entry points (RX burst loop, parser views, flow-table
//! ops, handshake machine, codec, mq send/recv).
//!
//! Panic sources classified in non-test code:
//!   - `unwrap` / `expect`
//!   - `panic!` / `unreachable!` / `todo!` / `unimplemented!` /
//!     `assert!` / `assert_eq!` / `assert_ne!` (debug_assert* exempt —
//!     compiled out of release dataplane builds)
//!   - slice/array indexing `x[i]` (`x[..]` exempt: infallible)
//!   - integer `/` and `%` with a non-literal divisor
//!   - bare `+` / `-` / `*` on the wire-arithmetic surface (`crates/wire`,
//!     `flow/src/measurement.rs`) outside `checked_*`/`wrapping_*` forms
//!     (debug builds panic on overflow; adversarial wire input controls
//!     these operands)
//!
//! A site reachable from a root fails the build unless annotated
//! `// panic-ok: <reason>` on the line or in the comment block directly
//! above it. Annotations are audited: an empty reason or an annotation that
//! suppresses nothing is itself a violation. Output is a per-crate report
//! with a call-chain witness (root → … → panic site) for each violation.
//!
//! Known soundness limits (documented in DESIGN.md §10): macro-expanded
//! code is invisible; trait-object and closure dispatch produce no edges;
//! calls qualified with external types (`HashMap::get`) are leaves;
//! multi-line expressions are classified line-by-line.

use crate::callgraph::{read_tok, skip_ws_chars, tok_ending_at, Finding, Workspace};
use crate::lexer::unicode_ident;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// The crates whose steady-state code must be panic-free.
pub const DATAPLANE_CRATES: &[&str] =
    &["wire", "nic", "flow", "mq", "tsdb", "telemetry", "pipeline"];

/// Dataplane entry points: (crate, fn name); `"*"` roots every pub fn in
/// the crate. `new`/constructors are deliberately NOT rooted — init-time
/// config-validation panics are accepted policy; `wire` is wildcarded
/// because every parser view must be total on adversarial bytes.
const ROOTS: &[(&str, &str)] = &[
    ("wire", "*"),
    // RX burst loop + fault injection + RSS steering + SPSC ring ops.
    ("nic", "rx_burst"),
    ("nic", "inject"),
    ("nic", "inject_at"),
    ("nic", "inject_lossless_at"),
    ("nic", "park_while_empty"),
    ("nic", "park_moderated"),
    ("nic", "apply"),
    ("nic", "hash_v4"),
    ("nic", "hash_v6"),
    ("nic", "hash_tuple"),
    ("nic", "queue_for"),
    ("nic", "parse_rss_tuple"),
    ("nic", "push"),
    ("nic", "pop"),
    ("nic", "push_burst"),
    ("nic", "pop_burst"),
    // Handshake state machine, flow table, classifier, codec.
    ("flow", "process"),
    ("flow", "process_burst"),
    ("flow", "housekeep"),
    ("flow", "insert"),
    ("flow", "get"),
    ("flow", "get_mut"),
    ("flow", "remove"),
    ("flow", "expire"),
    ("flow", "classify"),
    ("flow", "classify_mbuf"),
    ("flow", "table_hash"),
    // Prefetch staging for the trackers' burst loops.
    ("flow", "prefetch"),
    // Continuous in-flow RTT surface (pinned by type so coverage survives
    // if the unqualified names above are ever narrowed), plus the pping
    // baseline the differential tests run against.
    ("flow", "InflowTracker::process"),
    ("flow", "InflowTracker::process_burst"),
    ("flow", "Pping::process"),
    ("flow", "decode"),
    ("flow", "encode_into"),
    // Message-queue send/recv surface.
    ("mq", "send"),
    ("mq", "send_batch"),
    ("mq", "recv"),
    ("mq", "recv_timeout"),
    ("mq", "try_recv"),
    ("mq", "recv_batch"),
    ("mq", "try_recv_batch"),
    ("mq", "publish"),
    ("mq", "publish_batch"),
    // The burst hand-off: the channel's batch primitives and the flush
    // every idle producer calls, pinned by type.
    ("mq", "Sender::send_batch"),
    ("mq", "Sender::try_send_batch"),
    ("mq", "Sender::flush"),
    ("mq", "Receiver::recv_batch"),
    ("mq", "Receiver::try_recv_batch"),
    ("mq", "Push::flush"),
    ("mq", "encode_frame"),
    ("mq", "read_frame"),
    // Time-series ingest/query path.
    ("tsdb", "write"),
    ("tsdb", "parse"),
    ("tsdb", "encode"),
    ("tsdb", "query"),
    ("tsdb", "to_snapshot"),
    ("tsdb", "from_snapshot"),
    ("tsdb", "compute"),
    ("tsdb", "percentile_sorted"),
    // Self-telemetry registry: worker-side writes and the collector's
    // epoch-validated snapshot both run on hot threads.
    ("telemetry", "burst_begin"),
    ("telemetry", "burst_end"),
    ("telemetry", "counter_add"),
    ("telemetry", "gauge_store"),
    ("telemetry", "hist_record"),
    ("telemetry", "snapshot_into"),
    // Engine worker + detector loops (named fns, not spawn closures).
    ("pipeline", "dataplane_worker"),
    ("pipeline", "dataplane_idle"),
    ("pipeline", "detector_loop"),
    ("pipeline", "Pipeline::collect_telemetry"),
    ("telemetry", "Snapshot::write_into"),
];

/// Files where bare `+`/`-`/`*` is a panic source (wire-derived operands).
fn arith_surface(path: &str) -> bool {
    path.starts_with("crates/wire/src/") || path == "crates/flow/src/measurement.rs"
}

/// The full result of one `panic-check` run.
pub struct Analysis {
    /// Functions extracted across the scanned crates.
    pub fn_count: usize,
    /// Resolved intra-workspace call edges.
    pub edge_count: usize,
    /// Unannotated panic sites reachable from a root — these fail the run.
    pub violations: Vec<Finding>,
    /// Suppressed sites: (path, 1-based line, audited reason).
    pub audited: Vec<(String, usize, String)>,
    /// `panic-ok` audit failures (empty reason, unused annotation) and
    /// root specs that match no fn.
    pub annotation_errors: Vec<Finding>,
    /// Panic sites in functions no root reaches (reported, not fatal).
    pub unreachable_sites: usize,
    /// Per-crate (crate, fns, reachable fns, violations).
    pub per_crate: Vec<(String, usize, usize, usize)>,
}

/// CLI entry: `cargo xtask panic-check [--root DIR] [--json PATH]`.
pub fn run(args: &[String]) -> ExitCode {
    let cli = match crate::check_all::parse_cli("panic-check", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match analyze(&cli.root) {
        Ok(a) => {
            if let Some(path) = &cli.json {
                let section = json_section(&a);
                if let Err(e) = crate::callgraph::write_json_report(path, &[section]) {
                    eprintln!("panic-check: {e}");
                    return ExitCode::FAILURE;
                }
            }
            report(&a)
        }
        Err(e) => {
            eprintln!("panic-check: {e}");
            ExitCode::FAILURE
        }
    }
}

/// All fatal findings, ordered violations-then-annotation-errors.
pub fn findings_of(a: &Analysis) -> Vec<&Finding> {
    a.violations.iter().chain(&a.annotation_errors).collect()
}

/// This analyzer's section of the shared `--json` report.
pub fn json_section(a: &Analysis) -> String {
    crate::callgraph::analyzer_json("panic-check", &findings_of(a), a.audited.len())
}

/// Print the per-crate report and turn the analysis into an exit code.
fn report(a: &Analysis) -> ExitCode {
    println!(
        "panic-check: {} fns, {} call edges across {}",
        a.fn_count,
        a.edge_count,
        DATAPLANE_CRATES.join(", ")
    );
    for (name, fns, reachable, viols) in &a.per_crate {
        println!("  {name:<9} {fns:>4} fns  {reachable:>4} reachable  {viols:>3} violation(s)");
    }
    println!(
        "  audited panic-ok sites: {}; panic sites outside the reachable dataplane: {}",
        a.audited.len(),
        a.unreachable_sites
    );
    let total = a.violations.len() + a.annotation_errors.len();
    if total == 0 {
        println!("panic-check: clean");
        return ExitCode::SUCCESS;
    }
    for v in a.violations.iter().chain(&a.annotation_errors) {
        eprintln!("{v}");
    }
    eprintln!("panic-check: {total} violation(s)");
    ExitCode::FAILURE
}

/// Run the analyzer over `<root>/crates/{wire,nic,flow,mq,tsdb,telemetry,pipeline}/src`.
pub fn analyze(root: &Path) -> Result<Analysis, String> {
    let ws = Workspace::load(root, DATAPLANE_CRATES)?;
    let reach = ws.reach(ROOTS);

    let mut violations = Vec::new();
    let mut annotation_errors = Vec::new();
    let mut unreachable_sites = 0usize;
    let mut crate_viols: HashMap<&str, usize> = HashMap::new();
    let mut sup = crate::suppress::Suppressions::new("panic-ok:", "panic-ok-empty", "panic-ok-unused");

    for (fi, file) in ws.files.iter().enumerate() {
        for (idx, line) in file.view.code.iter().enumerate() {
            if file.view.in_tests[idx] || line.trim_start().starts_with('#') {
                continue;
            }
            let mut rules: Vec<&'static str> = Vec::new();
            if line.contains(".unwrap()") {
                rules.push("unwrap");
            }
            if line.contains(".expect(") {
                rules.push("expect");
            }
            if has_panic_macro(line) {
                rules.push("panic-macro");
            }
            if has_panicking_index(line) {
                rules.push("index");
            }
            if has_unchecked_div(line) {
                rules.push("div");
            }
            if arith_surface(&file.rel) && has_unchecked_arith(line) {
                rules.push("arith");
            }
            if rules.is_empty() {
                continue;
            }
            let Some(owner) = ws.innermost_fn(fi, idx) else {
                continue; // const/static item: evaluated at compile time
            };
            // panic-ok suppression (covers every rule on the line).
            if sup.check(&ws, fi, idx, &ws.label(owner)) {
                continue;
            }
            if !reach.reachable[owner] {
                unreachable_sites += rules.len();
                continue;
            }
            for rule in rules {
                *crate_viols.entry(crate_of(&file.rel)).or_default() += 1;
                violations.push(Finding {
                    rule,
                    path: file.rel.clone(),
                    line: idx + 1,
                    func: ws.label(owner),
                    snippet: ws.snippet(fi, idx),
                    witness: reach.witness(&ws, owner),
                });
            }
        }
    }

    sup.audit_unused(&ws);
    annotation_errors.extend(sup.errors);
    annotation_errors.extend(reach.unmatched);

    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    annotation_errors.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    let mut per_crate = Vec::new();
    for krate in DATAPLANE_CRATES {
        let ids: Vec<usize> = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| ws.files[f.file].crate_name == *krate)
            .map(|(id, _)| id)
            .collect();
        let reachable = ids.iter().filter(|&&id| reach.reachable[id]).count();
        per_crate.push((
            krate.to_string(),
            ids.len(),
            reachable,
            crate_viols.get(krate).copied().unwrap_or(0),
        ));
    }

    Ok(Analysis {
        fn_count: ws.fns.len(),
        edge_count: ws.edge_count,
        violations,
        audited: sup.audited,
        annotation_errors,
        unreachable_sites,
        per_crate,
    })
}

fn crate_of(rel: &str) -> &'static str {
    for krate in DATAPLANE_CRATES {
        if rel.starts_with(&format!("crates/{krate}/")) {
            return krate;
        }
    }
    "?"
}

// ---------------------------------------------------------------------------
// Per-line panic-source classification
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &[
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

fn has_panic_macro(line: &str) -> bool {
    PANIC_MACROS.iter().any(|m| {
        line.match_indices(m).any(|(pos, _)| {
            // Word boundary on the left excludes `debug_assert!`.
            !line[..pos].chars().next_back().is_some_and(unicode_ident)
        })
    })
}

/// `x[i]` where `x` is a value (prev char ident/`)`/`]`). `x[..]` is
/// infallible and exempt; `#[attr]` lines are filtered by the caller.
fn has_panicking_index(line: &str) -> bool {
    let b: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < b.len() {
        if b[i] == '[' {
            let prev = b[..i].iter().rev().find(|c| !c.is_whitespace());
            let mut indexable = matches!(prev, Some(&c) if unicode_ident(c) || c == ')' || c == ']');
            if indexable && matches!(prev, Some(&c) if unicode_ident(c)) {
                // A keyword before `[` introduces a slice pattern or type
                // (`let [a, ..] =`, `&mut [u8]`), not an indexing expression.
                let mut k = i;
                while k > 0 && b[k - 1].is_whitespace() {
                    k -= 1;
                }
                let start = (0..k).rev().take_while(|&p| unicode_ident(b[p])).last();
                if let Some(s) = start {
                    let word: String = b[s..k].iter().collect();
                    if matches!(
                        word.as_str(),
                        "let" | "mut" | "ref" | "in" | "as" | "dyn" | "impl" | "const"
                            | "static" | "return" | "else" | "box" | "move" | "where"
                    ) || (s > 0 && b[s - 1] == '\'')
                    {
                        // Keyword before `[` introduces a slice pattern or
                        // type; a lifetime (`&'a [u8]`) precedes a type.
                        indexable = false;
                    }
                }
            }
            if indexable {
                let mut depth = 1i32;
                let mut j = i + 1;
                let mut content = String::new();
                while j < b.len() && depth > 0 {
                    match b[j] {
                        '[' => depth += 1,
                        ']' => depth -= 1,
                        _ => {}
                    }
                    if depth > 0 {
                        content.push(b[j]);
                    }
                    j += 1;
                }
                let t = content.trim();
                if !t.is_empty() && t != ".." {
                    return true;
                }
            }
        }
        i += 1;
    }
    false
}

/// Integer `/` or `%` whose divisor is not a numeric literal or ALL_CAPS
/// constant (compile-time-checked). Conservative: float division is
/// flagged too and needs a `panic-ok` annotation or a guard rewrite.
/// If the divisor starting at `j` is a field path cast to a float
/// (`self.count as f64`), the index just past the cast.
fn float_cast_end(b: &[char], j: usize) -> Option<usize> {
    let mut k = j;
    while k < b.len() && (unicode_ident(b[k]) || b[k] == '.') {
        k += 1;
    }
    if k == j {
        return None;
    }
    let k = skip_ws_chars(b, k);
    let (kw, k) = read_tok(b, k);
    let (ty, end) = read_tok(b, skip_ws_chars(b, k));
    (kw == "as" && (ty == "f64" || ty == "f32")).then_some(end)
}

fn has_unchecked_div(line: &str) -> bool {
    let b: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c != '/' && c != '%' {
            i += 1;
            continue;
        }
        // Binary operator only: something divisible must precede it.
        let prev = b[..i].iter().rev().find(|c| !c.is_whitespace());
        if !matches!(prev, Some(&p) if unicode_ident(p) || p == ')' || p == ']') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if b.get(j) == Some(&'=') {
            j += 1; // compound `/=` `%=`
        }
        j = skip_ws_chars(&b, j);
        if j >= b.len() {
            return true; // divisor continues on the next line: conservative
        }
        if b[j].is_ascii_digit() {
            i = j;
            continue; // literal divisor: nonzero or a compile error
        }
        let (tok, _) = read_tok(&b, j);
        if !tok.is_empty()
            && tok
                .chars()
                .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        {
            i = j + tok.len();
            continue; // ALL_CAPS constant: const-evaluated
        }
        if let Some(end) = float_cast_end(&b, j) {
            i = end;
            continue; // `x as f64` divisor: float division never panics
        }
        return true;
    }
    false
}

/// Bare `+` / `-` / `*` on the arithmetic surface, outside signature-ish
/// lines. Both-literal operands are const-folded and exempt.
fn has_unchecked_arith(line: &str) -> bool {
    for kw in ["fn ", "impl ", "where ", "dyn ", "struct ", "enum ", "trait "] {
        if line.contains(kw) {
            return false;
        }
    }
    let b: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c != '+' && c != '-' && c != '*' {
            i += 1;
            continue;
        }
        if c == '-' && b.get(i + 1) == Some(&'>') {
            i += 2; // `->`
            continue;
        }
        let mut pi = i;
        let mut prev = None;
        while pi > 0 {
            pi -= 1;
            if !b[pi].is_whitespace() {
                prev = Some((b[pi], pi));
                break;
            }
        }
        let Some((p, p_at)) = prev else {
            i += 1;
            continue;
        };
        if !(unicode_ident(p) || p == ')' || p == ']') {
            i += 1;
            continue; // unary minus, deref, pattern, etc.
        }
        let prev_tok = tok_ending_at(&b, p_at);
        if prev_tok == "as" {
            i += 1;
            continue; // `x as *const u8`
        }
        // Lifetime bound `'a + 'b`.
        if p_at >= prev_tok.len() && !prev_tok.is_empty() {
            let before = p_at + 1 - prev_tok.len();
            if before > 0 && b[before - 1] == '\'' {
                i += 1;
                continue;
            }
        }
        let mut j = i + 1;
        if b.get(j) == Some(&'=') {
            j += 1; // compound `+=` `-=` `*=`
        }
        j = skip_ws_chars(&b, j);
        let (next_tok, _) = read_tok(&b, j);
        if c == '*' && (next_tok == "const" || next_tok == "mut") {
            i += 1;
            continue; // raw pointer type
        }
        if (is_numeric_tok(&prev_tok) || is_const_tok(&prev_tok))
            && (is_numeric_tok(&next_tok) || is_const_tok(&next_tok))
        {
            i = j;
            continue; // const-folded literal/constant arithmetic
        }
        return true;
    }
    false
}

fn is_numeric_tok(t: &str) -> bool {
    !t.is_empty() && t.chars().all(|c| c.is_ascii_digit() || c == '_')
}

/// An `ALL_CAPS` identifier: a named constant, whose arithmetic the compiler
/// const-folds and overflow-checks at build time.
fn is_const_tok(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && t.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Build a throwaway workspace fixture: `files` are (rel path, source).
    fn fixture(files: &[(&str, &str)]) -> std::path::PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "ruru-panic-check-{}-{n}",
            std::process::id()
        ));
        for (rel, content) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("fixture parent")).expect("mkdir");
            std::fs::write(path, content).expect("write fixture");
        }
        root
    }

    /// Analyze a fixture. It holds a few files, so most roots match
    /// nothing in it; `callgraph` tests the `unmatched-root` finding.
    fn run_on(files: &[(&str, &str)]) -> Analysis {
        let root = fixture(files);
        let mut a = analyze(&root).expect("analyze fixture");
        std::fs::remove_dir_all(&root).ok();
        a.annotation_errors.retain(|f| f.rule != "unmatched-root");
        a
    }

    fn rules(a: &Analysis) -> Vec<&'static str> {
        a.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_in_rooted_wire_fn_is_a_violation() {
        let a = run_on(&[(
            "crates/wire/src/lib.rs",
            "pub fn parse(d: &[u8]) -> u8 { d.first().copied().ok_or(0u8).unwrap() }\n",
        )]);
        assert_eq!(rules(&a), ["unwrap"]);
        assert_eq!(a.violations[0].witness, ["wire::parse"]);
        assert_eq!(a.violations[0].func, "wire::parse");
    }

    #[test]
    fn call_chain_witness_reaches_helper() {
        let a = run_on(&[(
            "crates/flow/src/lib.rs",
            "pub fn classify(d: &[u8]) -> u8 { helper(d) }\n\
             fn helper(d: &[u8]) -> u8 { d.iter().next().copied().expect(\"x\") }\n",
        )]);
        assert_eq!(rules(&a), ["expect"]);
        assert_eq!(a.violations[0].witness, ["flow::classify", "flow::helper"]);
    }

    /// A closure parameter `value` called inside a rooted fn is no call of
    /// the workspace `fn value`, so that fn's panic is unreachable.
    #[test]
    fn closure_parameter_calls_reach_no_same_named_fn() {
        let a = run_on(&[(
            "crates/tsdb/src/lib.rs",
            "pub fn write(rows: &[u8]) -> u8 {\n\
             \x20   rows.iter().fold(0, |acc, &value| acc.max(value(acc)))\n\
             }\n\
             fn value(d: u8) -> u8 { [d].first().copied().unwrap() }\n",
        )]);
        assert!(a.violations.is_empty(), "{:?}", rules(&a));
        assert_eq!(a.unreachable_sites, 1);
    }

    #[test]
    fn unreachable_fn_sites_reported_not_fatal() {
        let a = run_on(&[(
            "crates/flow/src/lib.rs",
            "fn debug_dump(d: &[u8]) -> u8 { d.first().copied().unwrap() }\n",
        )]);
        assert!(a.violations.is_empty());
        assert_eq!(a.unreachable_sites, 1);
    }

    #[test]
    fn panic_ok_annotation_suppresses_and_is_audited() {
        let a = run_on(&[(
            "crates/wire/src/lib.rs",
            "pub fn parse(d: &[u8]) -> u8 {\n\
             \x20   // panic-ok: length validated by new_checked above\n\
             \x20   d.first().copied().unwrap()\n\
             }\n",
        )]);
        assert!(a.violations.is_empty());
        assert!(a.annotation_errors.is_empty());
        assert_eq!(a.audited.len(), 1);
        assert_eq!(a.audited[0].2, "length validated by new_checked above");
    }

    #[test]
    fn empty_panic_ok_reason_is_a_violation() {
        let a = run_on(&[(
            "crates/wire/src/lib.rs",
            "pub fn parse(d: &[u8]) -> u8 {\n\
             \x20   // panic-ok:\n\
             \x20   d.first().copied().unwrap()\n\
             }\n",
        )]);
        assert_eq!(
            a.annotation_errors.iter().map(|v| v.rule).collect::<Vec<_>>(),
            ["panic-ok-empty"]
        );
    }

    #[test]
    fn unused_panic_ok_annotation_is_a_violation() {
        let a = run_on(&[(
            "crates/wire/src/lib.rs",
            "// panic-ok: stale claim about code that no longer panics\n\
             pub fn parse(d: &[u8]) -> u8 { d.first().copied().unwrap_or(0) }\n",
        )]);
        assert_eq!(
            a.annotation_errors.iter().map(|v| v.rule).collect::<Vec<_>>(),
            ["panic-ok-unused"]
        );
    }

    #[test]
    fn panic_macros_flagged_but_debug_assert_exempt() {
        let a = run_on(&[(
            "crates/wire/src/lib.rs",
            "pub fn parse(len: usize) {\n\
             \x20   debug_assert!(len > 0);\n\
             \x20   assert!(len < 65536);\n\
             }\n",
        )]);
        assert_eq!(rules(&a), ["panic-macro"]);
        assert_eq!(a.violations[0].line, 3);
    }

    #[test]
    fn indexing_flagged_full_range_exempt() {
        let a = run_on(&[(
            "crates/wire/src/lib.rs",
            "pub fn parse(d: &[u8]) -> u8 {\n\
             \x20   let all = &d[..];\n\
             \x20   all[0]\n\
             }\n",
        )]);
        assert_eq!(rules(&a), ["index"]);
        assert_eq!(a.violations[0].line, 3);
    }

    #[test]
    fn division_by_non_literal_flagged() {
        let a = run_on(&[(
            "crates/tsdb/src/lib.rs",
            "pub fn compute(total: u64, n: u64) -> u64 {\n\
             \x20   let half = total / 2;\n\
             \x20   half / n\n\
             }\n",
        )]);
        assert_eq!(rules(&a), ["div"]);
        assert_eq!(a.violations[0].line, 3);
    }

    #[test]
    fn division_by_a_float_cast_is_not_flagged() {
        let a = run_on(&[(
            "crates/tsdb/src/lib.rs",
            "pub fn compute(total: u64, n: u64) -> f64 {\n\
             \x20   let mean = total as f64 / n as f64;\n\
             \x20   mean / self.count as f32 as f64 + (total / n) as f64\n\
             }\n",
        )]);
        assert_eq!(rules(&a), ["div"]);
        assert_eq!(a.violations[0].line, 3);
    }

    #[test]
    fn arith_flagged_on_wire_surface_only() {
        let body = "pub fn parse(a: u16, b: u16) -> u16 {\n\
                    \x20   let c = a.wrapping_add(b);\n\
                    \x20   c + b\n\
                    }\n";
        let a = run_on(&[("crates/wire/src/lib.rs", body)]);
        assert_eq!(rules(&a), ["arith"]);
        assert_eq!(a.violations[0].line, 3);
        // The same code outside the arithmetic surface is not flagged
        // (reachable via the tsdb `parse` root, so it is scanned).
        let a = run_on(&[("crates/tsdb/src/lib.rs", body)]);
        assert!(rules(&a).is_empty());
    }

    #[test]
    fn test_regions_exempt() {
        let a = run_on(&[(
            "crates/wire/src/lib.rs",
            "pub fn parse(d: &[u8]) -> u8 { d.first().copied().unwrap_or(0) }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t(d: &[u8]) -> u8 { d.first().copied().unwrap() }\n\
             }\n",
        )]);
        assert!(rules(&a).is_empty());
        assert_eq!(a.unreachable_sites, 0);
    }

    #[test]
    fn qualified_constructor_does_not_over_approximate() {
        // `Backoff::new` in a rooted fn must NOT make `Table::new` (with
        // its assert) reachable; name-based resolution is narrowed by the
        // `Type::` qualifier.
        let a = run_on(&[
            (
                "crates/nic/src/backoff.rs",
                "pub struct Backoff;\n\
                 impl Backoff {\n\
                 \x20   pub fn new() -> Self { Backoff }\n\
                 }\n",
            ),
            (
                "crates/nic/src/rx.rs",
                "use crate::backoff::Backoff;\n\
                 pub fn rx_burst() { let _b = Backoff::new(); }\n",
            ),
            (
                "crates/flow/src/table.rs",
                "pub struct Table;\n\
                 impl Table {\n\
                 \x20   pub fn new(capacity: usize) -> Self { assert!(capacity > 0); Table }\n\
                 }\n",
            ),
        ]);
        assert!(rules(&a).is_empty(), "got {:?}", a.violations);
        assert_eq!(a.unreachable_sites, 1, "Table::new assert stays unreachable");
    }

    #[test]
    fn seeded_unwrap_in_parser_fails_with_witness() {
        // The acceptance-criteria scenario: an unwrap seeded into a parser
        // helper reachable from a root is caught and carries the chain.
        let a = run_on(&[(
            "crates/wire/src/tcp.rs",
            "pub fn parse(d: &[u8]) -> u16 { field(d) }\n\
             fn field(d: &[u8]) -> u16 {\n\
             \x20   let hi = d.get(0).copied().unwrap();\n\
             \x20   u16::from(hi)\n\
             }\n",
        )]);
        assert_eq!(rules(&a), ["unwrap"]);
        let w = &a.violations[0].witness;
        assert_eq!(w.first().map(String::as_str), Some("wire::parse"));
        assert_eq!(w.last().map(String::as_str), Some("wire::field"));
    }

    #[test]
    fn self_qualifier_resolves_within_impl() {
        let a = run_on(&[(
            "crates/mq/src/chan.rs",
            "pub struct Chan;\n\
             impl Chan {\n\
             \x20   pub fn send(&self) { Self::slot(); }\n\
             \x20   fn slot() { panic!(\"full\"); }\n\
             }\n",
        )]);
        assert_eq!(rules(&a), ["panic-macro"]);
        assert_eq!(a.violations[0].witness, ["mq::send", "mq::slot"]);
    }
}
