//! `cargo xtask account-check` — static loss-accounting and
//! counter-conservation analyzer (DESIGN.md §15).
//!
//! A measurement pipeline that silently drops records lies about the
//! network: an unaccounted discard is indistinguishable from real loss.
//! PR 5 made counter conservation a *dynamic* invariant; this pass proves
//! the complementary *static* property — no discard site reachable from
//! the dataplane roots is unaccounted:
//!
//! 1. **Discard-site detection** — early-exit shapes in functions
//!    reachable from the dataplane roots (`dataplane_worker`,
//!    `detector_loop`, the burst APIs, the telemetry collector):
//!    - `continue` / `break` inside per-packet/per-record loops
//!      (`unaccounted-continue`),
//!    - `?` and `return Err(..)` / `return None` propagating a failure
//!      out of the hot path (`unaccounted-try`),
//!    - match arms that drop a failure payload — `Err(_) =>` /
//!      `None =>` (`match-drop`),
//!    - `let _ =` discarding a `Result`-returning mq/tsdb send
//!      (`discarded-send`).
//!
//!    Each site must be **paired** with an accounting write — a
//!    reject tally or telemetry counter increment in the same innermost
//!    block (for match arms: the arm body), or a directly-called helper
//!    whose body increments one — or carry an audited
//!    `// account-ok: <reason>` annotation. Empty-reason and stale
//!    annotations are violations, same policy as `panic-ok`/`alloc-ok`.
//!    Sites whose line mentions `Reject` are accounted by construction:
//!    the typed `Reject` is the accounting currency, recorded per-cause
//!    at the engine catch-site (the worker's `reject_counts` tally).
//!
//! 2. **Counter liveness** (`dead-counter`) — every metric id declared
//!    against a `RegistryBuilder` must have at least one write site on a
//!    reachable path: the declared binding (struct field or `let`) must
//!    be used outside its declaration, in a function the roots reach.
//!    Snapshot export needs no per-metric check — the registry is
//!    fixed-shape, so every declared id is folded into every `Snapshot`
//!    by construction (enforced by `ruru-telemetry`'s own tests).
//!
//! 3. **Conservation-manifest liveness** (`identity-term-missing`) —
//!    every `Counter(..)`/`Gauge(..)`/`Hist(..)` term named in
//!    `crates/pipeline/src/conservation.rs` must be a declared, live
//!    metric, so the identity list the dynamic tests evaluate can never
//!    drift from what exists. A workspace that declares metrics but has
//!    no manifest fails loudly (`conservation-manifest`).
//!
//! `tsdb` is exempt from discard scanning: its `Result` surface is
//! query-path control flow (missing series, empty ranges), not record
//! accounting — and ingest conservation is enforced dynamically by the
//! `tsdb-accounting` and `tsdb-merge-accounting` identities instead. So
//! are the
//! E7 comparison baselines under `flow/src/baseline/` — deliberately
//! lossy reference designs whose misses are the experiment's subject.

use crate::callgraph::{
    analyzer_json, match_brace, skip_ws, word_positions, Finding, Workspace,
};
use crate::panic_check::DATAPLANE_CRATES;
use crate::suppress::Suppressions;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// Loss-accounting roots: the per-record worker loops, the burst APIs
/// records flow through, and the telemetry collector (gauge mirror
/// writes live there).
const ROOTS: &[(&str, &str)] = &[
    ("pipeline", "dataplane_worker"),
    ("pipeline", "detector_loop"),
    ("pipeline", "collect_into"),
    // Flow burst surface.
    ("flow", "process_burst"),
    ("flow", "classify_mbuf"),
    // Continuous in-flow RTT burst surface, pinned by type so coverage
    // survives if the unqualified names above are ever narrowed.
    ("flow", "InflowTracker::process_burst"),
    // Message-queue batch surface.
    ("mq", "send_batch"),
    ("mq", "recv_batch"),
    ("mq", "try_recv_batch"),
    ("mq", "publish_batch"),
    // NIC burst surface.
    ("nic", "rx_burst"),
    ("nic", "push_burst"),
    ("nic", "pop_burst"),
    // Telemetry write + collect protocol.
    ("telemetry", "burst_begin"),
    ("telemetry", "burst_end"),
    ("telemetry", "snapshot_into"),
    // Enrichment-pool handle bundle: the pool loop itself lives in
    // ruru-analytics (outside the scanned dataplane crates), so the
    // counters it writes are rooted at the handle constructor.
    ("pipeline", "pool_telemetry"),
];

/// Line patterns that count as an accounting write: per-cause reject
/// recording, the engine's local reject tally, registry writes, the
/// collector's torn-shard tally, the pull-mirrored stat-struct bumps
/// (`TrackerStats`/port/bus stats — `collect_into` turns them into
/// registry gauges), and the lock-free drop tallies (`drops.fetch_add`).
const ACCOUNT_PATTERNS: &[&str] = &[
    ".record(",
    "counter_add(",
    "gauge_store(",
    "hist_record(",
    "reject_counts",
    "skipped_shards",
    "stats.",
    ".fetch_add(",
];

/// `Result`-returning send surfaces whose value must not be discarded
/// with `let _ =` without accounting.
const SEND_PATTERNS: &[&str] = &[
    ".send(",
    "send_batch(",
    ".try_send(",
    ".publish(",
    "publish_batch(",
    ".write(",
];

/// Crates exempt from discard scanning: tsdb `Result`s are query-path
/// control flow, and its ingest is conserved dynamically by the
/// tsdb accounting identities.
const DISCARD_EXEMPT: &[&str] = &["tsdb"];

/// One declared metric id: name literal, bound identifier, declaration
/// site.
struct MetricDecl {
    name: String,
    ident: Option<String>,
    file: usize,
    /// 0-based declaration line.
    line: usize,
}

/// The full result of one `account-check` run.
pub struct AccountAnalysis {
    pub fn_count: usize,
    pub edge_count: usize,
    /// Unpaired, unannotated discard sites + liveness failures.
    pub violations: Vec<Finding>,
    /// Suppressed sites: (path, 1-based line, audited reason).
    pub audited: Vec<(String, usize, String)>,
    /// `account-ok` audit failures (empty reason, unused annotation) and
    /// root specs that match no fn.
    pub annotation_errors: Vec<Finding>,
    /// Reachable discard shapes that were paired with accounting.
    pub paired_sites: usize,
    /// Discard shapes in functions no root reaches (reported, not fatal).
    pub unreachable_sites: usize,
    /// Metric ids declared against a `RegistryBuilder`.
    pub metrics_declared: usize,
    /// Conservation-manifest terms checked.
    pub identity_terms: usize,
    /// Per-crate (crate, fns, reachable fns, violations).
    pub per_crate: Vec<(String, usize, usize, usize)>,
}

/// CLI entry: `cargo xtask account-check [--root DIR] [--json PATH]`.
pub fn run(args: &[String]) -> ExitCode {
    let cli = match crate::check_all::parse_cli("account-check", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match analyze(&cli.root) {
        Ok(a) => {
            if let Some(path) = &cli.json {
                let section = json_section(&a);
                if let Err(e) = crate::callgraph::write_json_report(path, &[section]) {
                    eprintln!("account-check: {e}");
                    return ExitCode::FAILURE;
                }
            }
            report(&a)
        }
        Err(e) => {
            eprintln!("account-check: {e}");
            ExitCode::FAILURE
        }
    }
}

/// All fatal findings, ordered violations-then-annotation-errors.
pub fn findings_of(a: &AccountAnalysis) -> Vec<&Finding> {
    a.violations.iter().chain(&a.annotation_errors).collect()
}

/// This analyzer's section of the shared `--json` report.
pub fn json_section(a: &AccountAnalysis) -> String {
    analyzer_json("account-check", &findings_of(a), a.audited.len())
}

/// Print the per-crate report and turn the analysis into an exit code.
fn report(a: &AccountAnalysis) -> ExitCode {
    println!(
        "account-check: {} fns, {} call edges across {}",
        a.fn_count,
        a.edge_count,
        DATAPLANE_CRATES.join(", ")
    );
    for (name, fns, reachable, viols) in &a.per_crate {
        println!("  {name:<9} {fns:>4} fns  {reachable:>4} reachable  {viols:>3} violation(s)");
    }
    println!(
        "  paired discard sites: {}; audited account-ok: {}; discards outside the reachable dataplane: {}",
        a.paired_sites,
        a.audited.len(),
        a.unreachable_sites
    );
    println!(
        "  metrics declared: {}; conservation identity terms: {}",
        a.metrics_declared, a.identity_terms
    );
    let total = a.violations.len() + a.annotation_errors.len();
    if total == 0 {
        println!("account-check: clean");
        return ExitCode::SUCCESS;
    }
    for v in a.violations.iter().chain(&a.annotation_errors) {
        eprintln!("{v}");
    }
    eprintln!("account-check: {total} violation(s)");
    ExitCode::FAILURE
}

/// Run the analyzer over `<root>/crates/{wire,nic,flow,mq,tsdb,telemetry,pipeline}`.
pub fn analyze(root: &Path) -> Result<AccountAnalysis, String> {
    let ws = Workspace::load(root, DATAPLANE_CRATES)?;
    let reach = ws.reach(ROOTS);
    let mut sup =
        Suppressions::new("account-ok:", "account-ok-empty", "account-ok-unused");
    let mut violations = Vec::new();
    let mut crate_viols: HashMap<&str, usize> = HashMap::new();
    let mut paired_sites = 0usize;
    let mut unreachable_sites = 0usize;

    // First char index of each line in the file's flat stream.
    let line_starts: Vec<Vec<usize>> = ws
        .files
        .iter()
        .map(|f| {
            let mut starts = Vec::with_capacity(f.view.code.len() + 1);
            let mut acc = 0usize;
            for l in &f.view.code {
                starts.push(acc);
                acc += l.chars().count() + 1; // + '\n'
            }
            starts.push(acc);
            starts
        })
        .collect();

    // Fns whose body performs an accounting write (helper pairing, depth 1).
    let accounting: Vec<bool> = ws
        .fns
        .iter()
        .map(|f| {
            let file = &ws.files[f.file];
            (f.start_line..=f.end_line).any(|ln| {
                file.view
                    .code
                    .get(ln)
                    .is_some_and(|l| ACCOUNT_PATTERNS.iter().any(|p| l.contains(p)))
            })
        })
        .collect();

    // --- pass 1: discard-site detection ---------------------------------
    for (fi, file) in ws.files.iter().enumerate() {
        if DISCARD_EXEMPT.contains(&file.crate_name.as_str()) {
            continue;
        }
        // The E7 comparison baselines (expiring/pping/synonly) are
        // deliberately lossy reference implementations, not the production
        // dataplane — their whole point is to measure what unaccounted
        // designs miss.
        if file.rel.contains("/baseline/") {
            continue;
        }
        for (idx, line) in file.view.code.iter().enumerate() {
            if file.view.in_tests[idx] || line.trim_start().starts_with('#') {
                continue;
            }
            let hits = classify_line(line);
            if hits.is_empty() {
                continue;
            }
            let Some(owner) = ws.innermost_fn(fi, idx) else {
                continue; // top-level item, not executable dataplane code
            };
            if sup.check(&ws, fi, idx, &ws.label(owner)) {
                continue;
            }
            if !reach.reachable[owner] {
                unreachable_sites += hits.len();
                continue;
            }
            for (rule, col) in hits {
                let site_pos = line_starts[fi][idx] + col;
                if is_paired(&ws, &accounting, fi, owner, site_pos, rule, idx) {
                    paired_sites += 1;
                    continue;
                }
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

    // --- pass 2: counter liveness ----------------------------------------
    let decls = collect_metric_decls(&ws);
    for d in &decls {
        if sup.check(&ws, d.file, d.line, "-") {
            continue;
        }
        if !metric_is_live(&ws, &reach, d) {
            *crate_viols
                .entry(crate_of(&ws.files[d.file].rel))
                .or_default() += 1;
            violations.push(Finding {
                rule: "dead-counter",
                path: ws.files[d.file].rel.clone(),
                line: d.line + 1,
                func: format!("metric `{}`", d.name),
                snippet: ws.snippet(d.file, d.line),
                witness: vec!["no reachable write site".into()],
            });
        }
    }

    // --- pass 3: conservation-manifest liveness --------------------------
    let mut identity_terms = 0usize;
    let manifest = ws
        .files
        .iter()
        .position(|f| f.rel.ends_with("pipeline/src/conservation.rs"));
    match manifest {
        None if !decls.is_empty() => {
            violations.push(Finding {
                rule: "conservation-manifest",
                path: "crates/pipeline/src/conservation.rs".into(),
                line: 1,
                func: "-".into(),
                snippet: "metrics are declared but no conservation manifest exists".into(),
                witness: vec!["manifest audit".into()],
            });
        }
        None => {}
        Some(mi) => {
            for (name, idx) in manifest_terms(&ws, mi) {
                identity_terms += 1;
                let decl = decls.iter().find(|d| d.name == name);
                let live = decl.is_some_and(|d| metric_is_live(&ws, &reach, d));
                if decl.is_none() || !live {
                    if sup.check(&ws, mi, idx, "-") {
                        continue;
                    }
                    let why = if decl.is_none() {
                        "term is not a declared metric"
                    } else {
                        "term's metric has no reachable write site"
                    };
                    *crate_viols.entry("pipeline").or_default() += 1;
                    violations.push(Finding {
                        rule: "identity-term-missing",
                        path: ws.files[mi].rel.clone(),
                        line: idx + 1,
                        func: format!("term `{name}`"),
                        snippet: ws.snippet(mi, idx),
                        witness: vec![why.into()],
                    });
                }
            }
        }
    }

    sup.audit_unused(&ws);
    sup.errors.extend(reach.unmatched.iter().cloned());

    // --- per-crate rollup -------------------------------------------------
    let mut per_crate = Vec::new();
    for krate in DATAPLANE_CRATES {
        let fns = ws
            .fns
            .iter()
            .filter(|f| ws.files[f.file].crate_name == *krate)
            .count();
        let reachable = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(id, f)| ws.files[f.file].crate_name == *krate && reach.reachable[*id])
            .count();
        per_crate.push((
            krate.to_string(),
            fns,
            reachable,
            crate_viols.get(*krate).copied().unwrap_or(0),
        ));
    }

    Ok(AccountAnalysis {
        fn_count: ws.fns.len(),
        edge_count: ws.edge_count,
        violations,
        audited: std::mem::take(&mut sup.audited),
        annotation_errors: std::mem::take(&mut sup.errors),
        paired_sites,
        unreachable_sites,
        metrics_declared: decls.len(),
        identity_terms,
        per_crate,
    })
}

fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("?")
}

/// Discard shapes on one comment/string-stripped code line:
/// `(rule, char column)` per hit.
fn classify_line(line: &str) -> Vec<(&'static str, usize)> {
    let mut hits = Vec::new();
    // A typed `Reject` on the line is the accounting currency itself:
    // constructing/propagating it hands the loss to the engine catch-site,
    // which records per-cause. Wire's typed parse errors are the same
    // currency one hop earlier: `classify_mbuf` converts each `Error`
    // variant into its `Reject` cause at the crate boundary.
    let carries_reject = line.contains("Reject") || line.contains("Err(Error::");
    for kw in ["continue", "break"] {
        for pos in word_positions(line, kw) {
            hits.push(("unaccounted-continue", col_of(line, pos)));
        }
    }
    if !carries_reject {
        for (pos, _) in line.char_indices().filter(|&(_, c)| c == '?') {
            if line[pos..].starts_with("?Sized") {
                continue;
            }
            hits.push(("unaccounted-try", col_of(line, pos)));
        }
        for pos in word_positions(line, "return") {
            let rest = &line[pos..];
            if rest.contains("Err(") || !word_positions(rest, "None").is_empty() {
                hits.push(("unaccounted-try", col_of(line, pos)));
            }
        }
        for (pos, _) in line.match_indices("=>") {
            let pat = &line[..pos];
            let trimmed = pat.trim();
            let arm_pat = trimmed.rsplit(',').next().unwrap_or(trimmed).trim();
            if pat.contains("Err(_") || arm_pat == "None" {
                hits.push(("match-drop", col_of(line, pos)));
            }
        }
    }
    if line.contains("let _ =") && SEND_PATTERNS.iter().any(|p| line.contains(p)) {
        let pos = line.find("let _ =").unwrap_or(0);
        hits.push(("discarded-send", col_of(line, pos)));
    }
    hits
}

/// Byte position → char column (the flat stream is char-indexed).
fn col_of(line: &str, byte_pos: usize) -> usize {
    line[..byte_pos].chars().count()
}

/// Is the discard at `site_pos` (flat char index) paired with an
/// accounting write in its innermost block — or, for a match arm, its arm
/// body — either directly or through a directly-called accounting helper?
fn is_paired(
    ws: &Workspace,
    accounting: &[bool],
    fi: usize,
    owner: usize,
    site_pos: usize,
    rule: &str,
    line_idx: usize,
) -> bool {
    let flat = &ws.flats[fi];
    let f = &ws.fns[owner];
    let (start, end) = if rule == "match-drop" {
        // Arm scope: the `{ ... }` after `=>`, or the rest of the line.
        let mut p = site_pos + 2; // past "=>"
        p = skip_ws(&flat.chars, p);
        if flat.chars.get(p) == Some(&'{') {
            (p, match_brace(&flat.chars, p))
        } else {
            let mut e = p;
            while e < flat.chars.len() && flat.chars[e] != '\n' {
                e += 1;
            }
            (p, e)
        }
    } else {
        // Innermost block containing the site.
        let mut stack: Vec<usize> = Vec::new();
        let from = f.body_start.min(site_pos);
        for p in from..site_pos.min(flat.chars.len()) {
            match flat.chars[p] {
                '{' => stack.push(p),
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
        match stack.last() {
            Some(&open) => (open, match_brace(&flat.chars, open)),
            None => (f.body_start, f.body_end),
        }
    };

    let text: String = flat.chars[start.min(flat.chars.len())..end.min(flat.chars.len())]
        .iter()
        .collect();
    if ACCOUNT_PATTERNS.iter().any(|p| text.contains(p)) {
        return true;
    }
    // Directly-called helper whose body accounts.
    let first_line = *flat.line_of.get(start).unwrap_or(&line_idx);
    let last_line = *flat
        .line_of
        .get(end.min(flat.line_of.len().saturating_sub(1)))
        .unwrap_or(&line_idx);
    for call in &ws.calls[owner] {
        if call.line < first_line || call.line > last_line {
            continue;
        }
        if ws
            .resolve(call, f)
            .into_iter()
            .any(|target| accounting[target])
        {
            return true;
        }
    }
    false
}

/// Every metric declared against a `RegistryBuilder`: lines of the form
/// `field: b.counter("name")` / `let id = b.gauge("name")` inside a fn
/// whose body mentions `RegistryBuilder`. Query-side `.counter("x")`
/// calls on a `Snapshot` live in other fns and are not collected.
fn collect_metric_decls(ws: &Workspace) -> Vec<MetricDecl> {
    let mut decls = Vec::new();
    for f in &ws.fns {
        let file = &ws.files[f.file];
        let in_builder_fn = (f.start_line..=f.end_line).any(|ln| {
            file.view
                .code
                .get(ln)
                .is_some_and(|l| l.contains("RegistryBuilder"))
        });
        if !in_builder_fn {
            continue;
        }
        for ln in f.start_line..=f.end_line {
            let Some(code) = file.view.code.get(ln) else {
                continue;
            };
            if file.view.in_tests[ln] {
                continue;
            }
            for pat in [".counter(", ".gauge(", ".histogram("] {
                for (pos, _) in code.match_indices(pat) {
                    let Some(raw) = file.raw.get(ln) else { continue };
                    let Some(name) = literal_after(raw, pat) else {
                        continue; // dynamic name: not a declaration form
                    };
                    decls.push(MetricDecl {
                        name,
                        ident: binding_ident(&code[..pos]),
                        file: f.file,
                        line: ln,
                    });
                }
            }
        }
    }
    decls
}

/// First `"..."` literal after `pat` in `raw`.
fn literal_after(raw: &str, pat: &str) -> Option<String> {
    let after = &raw[raw.find(pat)? + pat.len()..];
    let after = after.trim_start();
    let rest = after.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The identifier a declaration binds: `ident: b.counter(..)` (struct
/// field) or `let ident = b.counter(..)`.
fn binding_ident(prefix: &str) -> Option<String> {
    let mut s = prefix.trim_end();
    // Strip the builder receiver chain (`b`, `builder`, `self.b`, ...).
    while s
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.')
    {
        s = &s[..s.len() - s.chars().next_back().map_or(0, char::len_utf8)];
    }
    s = s.trim_end();
    let sep = s.chars().next_back()?;
    if sep != ':' && sep != '=' {
        return None;
    }
    s = s[..s.len() - 1].trim_end();
    let ident: String = s
        .chars()
        .rev()
        .take_while(|&c| c.is_alphanumeric() || c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident)
    }
}

/// A declared metric is live when its binding is used outside the
/// declaration, in a fn some root reaches (the collector counts — it is
/// rooted). Id-typed struct/signature lines are declarations, not uses.
fn metric_is_live(
    ws: &Workspace,
    reach: &crate::callgraph::Reach,
    d: &MetricDecl,
) -> bool {
    let Some(ident) = &d.ident else { return false };
    for (fi, file) in ws.files.iter().enumerate() {
        for (idx, line) in file.view.code.iter().enumerate() {
            if file.view.in_tests[idx] || (fi == d.file && idx == d.line) {
                continue;
            }
            if [".counter(", ".gauge(", ".histogram("]
                .iter()
                .any(|p| line.contains(p))
            {
                continue;
            }
            if ["CounterId", "GaugeId", "HistId"].iter().any(|t| line.contains(t)) {
                continue;
            }
            if word_positions(line, ident).is_empty() {
                continue;
            }
            let Some(owner) = ws.innermost_fn(fi, idx) else {
                continue;
            };
            if reach.reachable[owner] {
                return true;
            }
        }
    }
    false
}

/// `Counter("x")` / `Gauge("x")` / `Hist("x")` terms named in the
/// conservation manifest: `(metric name, 0-based line)`.
fn manifest_terms(ws: &Workspace, mi: usize) -> Vec<(String, usize)> {
    let file = &ws.files[mi];
    let mut terms = Vec::new();
    for (idx, code) in file.view.code.iter().enumerate() {
        if file.view.in_tests[idx] {
            continue;
        }
        for kind in ["Counter(", "Gauge(", "Hist("] {
            if word_positions(code, &kind[..kind.len() - 1]).is_empty() {
                continue;
            }
            let Some(raw) = file.raw.get(idx) else { continue };
            // The code view strips string contents, so extract names from
            // the raw line; anything after a `//` is commentary.
            let scan = raw.find("//").map_or(raw.as_str(), |c| &raw[..c]);
            for pos in word_positions(scan, &kind[..kind.len() - 1]) {
                if !scan[pos..].starts_with(kind) {
                    continue;
                }
                if let Some(name) = literal_after(&scan[pos..], kind) {
                    terms.push((name, idx));
                }
            }
        }
    }
    terms.sort();
    terms.dedup();
    terms
}

#[cfg(test)]
mod tests;
