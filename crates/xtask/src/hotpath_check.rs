//! `cargo xtask hotpath-check` — hot-path hygiene analyzer.
//!
//! Two rule sets over the same [`crate::callgraph`] machinery panic-check
//! uses (DESIGN.md §14):
//!
//! **Allocation reachability.** Per-line classification of allocation
//! sources (`Box::new`, `Vec::with_capacity`/`vec!`, `String`/`format!`,
//! `.collect()`, `.to_vec()`/`.to_owned()`/`.clone()`, `Arc`/`Rc`/channel
//! construction, and container growth like `.push(`/`.insert(` when no
//! same-named workspace fn shadows the method) plus BFS from the
//! steady-state dataplane roots. A reachable allocation fails the build
//! unless annotated `// alloc-ok: <reason>`. Unlike panic-check's roots,
//! the allocation roots deliberately exclude construction-time and
//! serialization-boundary surfaces (`tsdb` ingest, `TcpPublisher` framing,
//! fault injection) — those allocate by design; the rule targets the
//! per-packet loop.
//!
//! **Lock discipline.** Guard liveness is tracked within each fn body: a
//! `.lock()`/`.read()`/`.write()` method acquisition or a workspace
//! `lock(..)`/`plock(..)` helper call starts a guard; a `let` binding
//! extends it to the innermost enclosing block (cut early by
//! `drop(name)`), an unbound temporary lives one line. A guard live
//! across a blocking call (`write_all`, `send`/`recv`, `park`, `join`,
//! I/O — directly or through the call graph via a may-block fixed point)
//! or an unsuppressed allocation site is flagged, suppressible with
//! `// lock-ok: <reason>` at the site or the acquisition line. Condvar
//! `wait(guard)` is exempt for the guard it atomically releases. Nested
//! and call-mediated acquisitions build the inter-procedural
//! lock-acquisition-order graph (nodes `crate/receiver`); any cycle —
//! including same-lock re-entry — is a potential deadlock and fails.
//!
//! Both annotation grammars are audited like `panic-ok`: empty reasons
//! and annotations that suppress nothing are themselves violations.
//!
//! Known soundness limits on top of the callgraph ones (DESIGN.md §14):
//! receiver identity is the last identifier before the acquisition, so
//! distinct locks reached through same-named fields alias and multi-line
//! method chains fall back to the previous line's trailing identifier; a
//! `let` on an earlier line than the acquisition is not seen (the guard
//! is treated as a one-line temporary — an under-approximation); method
//! growth patterns shadowed by a workspace fn name (`Ring::push`) are
//! delegated to the call graph and real `Vec::push` on an untyped
//! receiver is missed. The runtime counting-allocator audits
//! (`flow/tests/alloc_steady_state.rs`, telemetry/scaling) backstop the
//! allocation side dynamically.

use crate::callgraph::{word_positions, Finding, Workspace};
use crate::suppress::Suppressions;
use crate::lexer::unicode_ident;
use crate::panic_check::DATAPLANE_CRATES;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::process::ExitCode;

/// Steady-state allocation roots: the per-packet/per-burst surfaces that
/// must not heap-allocate after construction. Narrower than panic-check's
/// roots: constructors, fault injection (test harness), `tsdb` ingest and
/// `TcpPublisher` framing (serialization boundaries that allocate by
/// design, see module docs) are excluded.
const ALLOC_ROOTS: &[(&str, &str)] = &[
    ("wire", "*"),
    ("nic", "rx_burst"),
    ("nic", "push_burst"),
    ("nic", "pop_burst"),
    ("flow", "classify_mbuf"),
    ("flow", "process"),
    ("flow", "process_burst"),
    // Continuous in-flow RTT burst surface, pinned by type so coverage
    // survives if the unqualified names above are ever narrowed.
    ("flow", "InflowTracker::process"),
    ("flow", "InflowTracker::process_burst"),
    ("flow", "encode_into"),
    ("flow", "decode"),
    ("mq", "Sender::send"),
    ("mq", "Sender::send_batch"),
    ("mq", "Sender::try_send_batch"),
    ("mq", "Sender::flush"),
    ("mq", "Receiver::recv"),
    ("mq", "Receiver::recv_timeout"),
    ("mq", "Receiver::try_recv"),
    ("mq", "Receiver::recv_batch"),
    ("mq", "Receiver::try_recv_batch"),
    ("mq", "Push::send"),
    ("mq", "Push::send_batch"),
    ("mq", "Push::flush"),
    ("mq", "Pull::recv"),
    ("mq", "Pull::try_recv"),
    ("mq", "Pull::recv_batch"),
    ("mq", "Pull::try_recv_batch"),
    ("mq", "Publisher::publish"),
    ("mq", "Publisher::publish_batch"),
    ("telemetry", "burst_begin"),
    ("telemetry", "burst_end"),
    ("telemetry", "counter_add"),
    ("telemetry", "gauge_store"),
    ("telemetry", "hist_record"),
    ("telemetry", "snapshot_into"),
    ("pipeline", "dataplane_worker"),
    ("pipeline", "dataplane_idle"),
    ("pipeline", "detector_loop"),
    ("pipeline", "Pipeline::collect_telemetry"),
    ("telemetry", "Snapshot::write_into"),
];

/// Allocation sources, classified. Leading `.` means method call (the dot
/// is the boundary); otherwise an identifier boundary is required before
/// the match, so `sync_channel(` does not double-hit `channel(`.
/// `Arc::clone(`/`Vec::new()` are deliberately absent: neither touches
/// the heap, and rewriting `x.clone()` to `Arc::clone(&x)` is the
/// sanctioned fix for refcount bumps the `.clone(` rule flags.
const ALLOC_PATTERNS: &[(&str, &str)] = &[
    ("alloc-box", "Box::new("),
    ("alloc-box", "Box::leak("),
    ("alloc-vec", "Vec::with_capacity("),
    ("alloc-vec", "Vec::from("),
    ("alloc-vec", "vec!["),
    ("alloc-str", "String::from("),
    ("alloc-str", "String::with_capacity("),
    ("alloc-str", "format!("),
    ("alloc-str", ".to_string("),
    ("alloc-collect", ".collect()"),
    ("alloc-collect", ".collect::<"),
    ("alloc-clone", ".to_vec("),
    ("alloc-clone", ".to_owned("),
    ("alloc-clone", ".clone("),
    ("alloc-arc", "Arc::new("),
    ("alloc-arc", "Rc::new("),
    ("alloc-chan", "channel("),
    ("alloc-chan", "sync_channel("),
];

/// Container-growth methods (`alloc-grow`). These are the only patterns
/// with workspace-fn delegation: when a scanned crate defines a fn of the
/// same name (`Ring::push`, `FlowTable::insert` — fixed-capacity, no
/// allocation), the method call on an untyped receiver is assumed to be
/// that fn and left to the call graph, whose scan of its body covers it.
const GROW_PATTERNS: &[&str] = &[
    ".push(",
    ".push_back(",
    ".push_front(",
    ".insert(",
    ".extend(",
    ".extend_from_slice(",
    ".append(",
    ".reserve(",
    ".resize(",
    ".entry(",
    ".or_insert(",
    ".or_insert_with(",
    ".or_default(",
];

/// Calls that can block the calling thread. `()`-suffixed patterns only
/// match the argless form (`.recv()` not `.recv_timeout(`, `.flush()` not
/// a buffer write); `park()` keeps `unpark()` out via the identifier
/// boundary. Bare nonblocking-socket `.write(` (tcp.rs drains peers with
/// `WouldBlock` short-circuit) is deliberately not listed.
const BLOCKING_PATTERNS: &[&str] = &[
    ".write_all(",
    ".read_exact(",
    ".read_to_end(",
    ".read_to_string(",
    ".read_line(",
    ".flush()",
    ".accept()",
    "connect(",
    ".join()",
    "park()",
    "park_timeout(",
    "sleep(",
    ".wait(",
    ".wait_timeout(",
    ".wait_while(",
    ".recv()",
    ".recv_timeout(",
    ".send(",
];

/// Guard-producing method calls (empty parens distinguish `RwLock::read`/
/// `write` from buffer I/O) and workspace helper fns that return a guard.
const GUARD_METHODS: &[&str] = &[".lock()", ".read()", ".write()"];
const GUARD_HELPERS: &[&str] = &["lock", "plock"];

/// Files exempt from the allocation-reachability rule (lock discipline
/// still applies): the tsdb's sealing/compression modules. Sealing is the
/// cold phase transition — it drains an active tail into a freshly
/// compressed chunk, inherently building buffers — and runs once per
/// whole chunk (`CHUNK_LEN` rows) at merge boundaries, never per point. The
/// striped ingest path itself (`store.rs`, `sharded.rs`, `point.rs`)
/// carries no blanket exemption since the lock-free rework (ROADMAP
/// item 4): every allocation site reachable from the hot roots there is
/// individually audited with an `alloc-ok` reason.
const ALLOC_EXEMPT_FILES: &[&str] = &["crates/tsdb/src/seal.rs", "crates/tsdb/src/compress.rs"];

/// The full result of one `hotpath-check` run.
pub struct HotAnalysis {
    pub fn_count: usize,
    pub edge_count: usize,
    /// Unsuppressed allocations reachable from a steady-state root.
    pub alloc_violations: Vec<Finding>,
    /// Guard-across-blocking/alloc and lock-order-cycle findings.
    pub lock_violations: Vec<Finding>,
    /// `alloc-ok`/`lock-ok` audit failures (empty reason, unused) and
    /// root specs that match no fn.
    pub annotation_errors: Vec<Finding>,
    pub audited_alloc: usize,
    pub audited_lock: usize,
    /// Allocation sites in fns no root reaches (reported, not fatal).
    pub unreachable_alloc_sites: usize,
    pub guard_count: usize,
    pub lock_edge_count: usize,
    /// Per-crate (crate, fns, alloc-reachable fns, violations).
    pub per_crate: Vec<(String, usize, usize, usize)>,
}

/// CLI entry: `cargo xtask hotpath-check [--root DIR] [--json PATH]`.
pub fn run(args: &[String]) -> ExitCode {
    let cli = match crate::check_all::parse_cli("hotpath-check", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match analyze(&cli.root) {
        Ok(a) => {
            if let Some(path) = &cli.json {
                let section = json_section(&a);
                if let Err(e) = crate::callgraph::write_json_report(path, &[section]) {
                    eprintln!("hotpath-check: {e}");
                    return ExitCode::FAILURE;
                }
            }
            report(&a)
        }
        Err(e) => {
            eprintln!("hotpath-check: {e}");
            ExitCode::FAILURE
        }
    }
}

/// All fatal findings, ordered alloc-then-lock-then-annotation.
pub fn findings_of(a: &HotAnalysis) -> Vec<&Finding> {
    a.alloc_violations
        .iter()
        .chain(&a.lock_violations)
        .chain(&a.annotation_errors)
        .collect()
}

/// This analyzer's section of the shared `--json` report.
pub fn json_section(a: &HotAnalysis) -> String {
    crate::callgraph::analyzer_json(
        "hotpath-check",
        &findings_of(a),
        a.audited_alloc + a.audited_lock,
    )
}

/// Print the per-crate report and turn the analysis into an exit code.
fn report(a: &HotAnalysis) -> ExitCode {
    println!(
        "hotpath-check: {} fns, {} call edges, {} guards, {} lock-order edges across {}",
        a.fn_count,
        a.edge_count,
        a.guard_count,
        a.lock_edge_count,
        DATAPLANE_CRATES.join(", ")
    );
    for (name, fns, reachable, viols) in &a.per_crate {
        println!("  {name:<9} {fns:>4} fns  {reachable:>4} alloc-reachable  {viols:>3} violation(s)");
    }
    println!(
        "  audited alloc-ok: {}; audited lock-ok: {}; allocations outside the steady-state roots: {}",
        a.audited_alloc, a.audited_lock, a.unreachable_alloc_sites
    );
    let total = a.alloc_violations.len() + a.lock_violations.len() + a.annotation_errors.len();
    if total == 0 {
        println!("hotpath-check: clean");
        return ExitCode::SUCCESS;
    }
    for v in a
        .alloc_violations
        .iter()
        .chain(&a.lock_violations)
        .chain(&a.annotation_errors)
    {
        eprintln!("{v}");
    }
    eprintln!("hotpath-check: {total} violation(s)");
    ExitCode::FAILURE
}

/// Positions where `pat` matches `line` with a boundary before it: the
/// leading `.`/identifier-boundary rule from the pattern tables above.
fn pattern_positions(line: &str, pat: &str) -> Vec<usize> {
    line.match_indices(pat)
        .filter(|(pos, _)| {
            pat.starts_with('.') || !line[..*pos].chars().next_back().is_some_and(unicode_ident)
        })
        .map(|(pos, _)| pos)
        .collect()
}

/// A live lock guard inside one fn body.
struct Guard {
    /// `let` binding name; `None` for an unbound temporary (one-line span).
    name: Option<String>,
    /// Order-graph node: `crate/receiver`, trailing digits stripped
    /// (`peers2` is a clone of the `peers` Arc).
    identity: String,
    /// 0-based acquisition line and char position in the file's flat
    /// stream (for nesting order and block matching).
    line: usize,
    pos: usize,
    /// Last live line, inclusive.
    end_line: usize,
}

/// One deduplicated lock-order edge: `from` held while `to` is acquired.
struct LockEdge {
    from: String,
    to: String,
    file: usize,
    line: usize,
}

/// Run the analyzer over `<root>/crates/{wire,nic,flow,mq,tsdb,telemetry,pipeline}/src`.
pub fn analyze(root: &Path) -> Result<HotAnalysis, String> {
    let ws = Workspace::load(root, DATAPLANE_CRATES)?;
    let mut sup_alloc = Suppressions::new("alloc-ok:", "alloc-ok-empty", "alloc-ok-unused");
    let mut sup_lock = Suppressions::new("lock-ok:", "lock-ok-empty", "lock-ok-unused");

    // Growth patterns stay active only when no workspace fn shadows them.
    let grow_active: Vec<&str> = GROW_PATTERNS
        .iter()
        .copied()
        .filter(|p| {
            let name: String = p[1..].chars().take_while(|&c| unicode_ident(c)).collect();
            !ws.has_fn_named(&name)
        })
        .collect();

    // --- allocation line scan -------------------------------------------
    // (file, line) -> (owner fn, rules hit, alloc-ok suppressed).
    let mut alloc_lines: HashMap<(usize, usize), (usize, Vec<&'static str>, bool)> = HashMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (idx, line) in file.view.code.iter().enumerate() {
            if file.view.in_tests[idx] || line.trim_start().starts_with('#') {
                continue;
            }
            let mut rules: Vec<&'static str> = Vec::new();
            for (rule, pat) in ALLOC_PATTERNS {
                if !pattern_positions(line, pat).is_empty() && !rules.contains(rule) {
                    rules.push(rule);
                }
            }
            if grow_active.iter().any(|p| !pattern_positions(line, p).is_empty()) {
                rules.push("alloc-grow");
            }
            if rules.is_empty() {
                continue;
            }
            let Some(owner) = ws.innermost_fn(fi, idx) else {
                continue; // const/static item
            };
            let suppressed = sup_alloc.check(&ws, fi, idx, &ws.label(owner));
            alloc_lines.insert((fi, idx), (owner, rules, suppressed));
        }
    }

    // --- allocation reachability ----------------------------------------
    let reach = ws.reach(ALLOC_ROOTS);
    let mut alloc_violations = Vec::new();
    let mut unreachable_alloc_sites = 0usize;
    let mut crate_viols: HashMap<&str, usize> = HashMap::new();
    for (&(fi, idx), (owner, rules, suppressed)) in &alloc_lines {
        if *suppressed {
            continue;
        }
        if !reach.reachable[*owner] || ALLOC_EXEMPT_FILES.contains(&ws.files[fi].rel.as_str()) {
            unreachable_alloc_sites += rules.len();
            continue;
        }
        for rule in rules {
            *crate_viols.entry(crate_of(&ws.files[fi].rel)).or_default() += 1;
            alloc_violations.push(Finding {
                rule,
                path: ws.files[fi].rel.clone(),
                line: idx + 1,
                func: ws.label(*owner),
                snippet: ws.snippet(fi, idx),
                witness: reach.witness(&ws, *owner),
            });
        }
    }

    // --- precision-filtered edges for lock discipline -------------------
    // Method calls on unknown receivers resolving to several same-named
    // fns are reachability over-approximations (`.write(` is not
    // `tsdb::write`); following them would fabricate blocking/lock
    // evidence. Keep non-method calls and uniquely-named methods only.
    let mut hedges: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
    for (fid, f) in ws.fns.iter().enumerate() {
        let mut out: HashSet<usize> = HashSet::new();
        for call in &ws.calls[fid] {
            let targets = ws.resolve(call, f);
            if call.is_method && targets.len() > 1 {
                continue;
            }
            for t in targets {
                if t != fid {
                    out.insert(t);
                }
            }
        }
        let mut v: Vec<usize> = out.into_iter().collect();
        v.sort_unstable();
        hedges[fid] = v;
    }

    // --- may-block / may-alloc fixed points -----------------------------
    let mut seed_block = vec![false; ws.fns.len()];
    for (fi, file) in ws.files.iter().enumerate() {
        for (idx, line) in file.view.code.iter().enumerate() {
            if file.view.in_tests[idx] {
                continue;
            }
            if BLOCKING_PATTERNS
                .iter()
                .any(|p| !pattern_positions(line, p).is_empty())
            {
                if let Some(owner) = ws.innermost_fn(fi, idx) {
                    seed_block[owner] = true;
                }
            }
        }
    }
    let mut seed_alloc = vec![false; ws.fns.len()];
    for ((_, _), (owner, _, suppressed)) in &alloc_lines {
        if !*suppressed {
            seed_alloc[*owner] = true; // alloc-ok'd sites do not cascade
        }
    }
    let (may_block, block_because) = ws.propagate_up_edges(&hedges, &seed_block);
    let (may_alloc, alloc_because) = ws.propagate_up_edges(&hedges, &seed_alloc);

    // --- guard extraction ------------------------------------------------
    let mut guards_of: Vec<Vec<Guard>> = Vec::with_capacity(ws.fns.len());
    for fid in 0..ws.fns.len() {
        guards_of.push(find_guards(&ws, fid));
    }
    let guard_count = guards_of.iter().map(Vec::len).sum();

    // --- guard-span violations ------------------------------------------
    // lock-ok suppression cache: `check` audits per call, so memoize per
    // line to keep repeated guard lookups from duplicating audit entries.
    let mut lock_ok: HashMap<(usize, usize), bool> = HashMap::new();
    let mut lock_violations: Vec<Finding> = Vec::new();
    let mut flagged: HashSet<(usize, usize, &'static str)> = HashSet::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut edge_keys: HashSet<(String, String)> = HashSet::new();

    // Transitive lockset per fn (identities acquired by it or callees).
    let locksets = transitive_locksets(&hedges, &guards_of);

    for (fid, guards) in guards_of.iter().enumerate() {
        let f = &ws.fns[fid];
        let fi = f.file;
        let func = ws.label(fid);
        for g in guards {
            let check_lock_ok = |sup: &mut Suppressions,
                                     cache: &mut HashMap<(usize, usize), bool>,
                                     idx: usize|
             -> bool {
                *cache
                    .entry((fi, idx))
                    .or_insert_with(|| sup.check(&ws, fi, idx, &func))
            };
            for l in g.line..=g.end_line {
                if ws.files[fi].view.in_tests[l] || ws.innermost_fn(fi, l) != Some(fid) {
                    continue;
                }
                let line = &ws.files[fi].view.code[l];
                // Direct blocking calls in the span.
                for pat in BLOCKING_PATTERNS {
                    for pos in pattern_positions(line, pat) {
                        // Condvar `wait(guard)` atomically releases the
                        // guard it is passed.
                        if pat.starts_with(".wait")
                            && g.name
                                .as_deref()
                                .is_some_and(|n| !word_positions(&line[pos..], n).is_empty())
                        {
                            continue;
                        }
                        if flagged.contains(&(fi, l, "lock-across-blocking"))
                            || check_lock_ok(&mut sup_lock, &mut lock_ok, l)
                            || check_lock_ok(&mut sup_lock, &mut lock_ok, g.line)
                        {
                            continue;
                        }
                        flagged.insert((fi, l, "lock-across-blocking"));
                        lock_violations.push(Finding {
                            rule: "lock-across-blocking",
                            path: ws.files[fi].rel.clone(),
                            line: l + 1,
                            func: func.clone(),
                            snippet: ws.snippet(fi, l),
                            witness: vec![format!("guard `{}` acquired line {}", g.identity, g.line + 1)],
                        });
                    }
                }
                // Direct allocation sites in the span.
                if let Some((_, _, suppressed)) = alloc_lines.get(&(fi, l)) {
                    if !*suppressed
                        && !flagged.contains(&(fi, l, "lock-across-alloc"))
                        && !check_lock_ok(&mut sup_lock, &mut lock_ok, l)
                        && !check_lock_ok(&mut sup_lock, &mut lock_ok, g.line)
                    {
                        flagged.insert((fi, l, "lock-across-alloc"));
                        lock_violations.push(Finding {
                            rule: "lock-across-alloc",
                            path: ws.files[fi].rel.clone(),
                            line: l + 1,
                            func: func.clone(),
                            snippet: ws.snippet(fi, l),
                            witness: vec![format!("guard `{}` acquired line {}", g.identity, g.line + 1)],
                        });
                    }
                }
            }
            // Call-mediated blocking/alloc and lock-order edges.
            for call in &ws.calls[fid] {
                if call.line < g.line
                    || call.line > g.end_line
                    || ws.innermost_fn(fi, call.line) != Some(fid)
                    || ws.files[fi].view.in_tests[call.line]
                {
                    continue;
                }
                let targets = ws.resolve(call, f);
                if call.is_method && targets.len() > 1 {
                    continue; // over-approximated method call: no evidence
                }
                for target in targets {
                    for (rule, marked, because) in [
                        ("lock-across-blocking", &may_block, &block_because),
                        ("lock-across-alloc", &may_alloc, &alloc_because),
                    ] {
                        if !marked[target] || flagged.contains(&(fi, call.line, rule)) {
                            continue;
                        }
                        if check_lock_ok(&mut sup_lock, &mut lock_ok, call.line)
                            || check_lock_ok(&mut sup_lock, &mut lock_ok, g.line)
                        {
                            continue;
                        }
                        flagged.insert((fi, call.line, rule));
                        let mut witness = vec![func.clone()];
                        witness.extend(ws.because_chain(because, target));
                        lock_violations.push(Finding {
                            rule,
                            path: ws.files[fi].rel.clone(),
                            line: call.line + 1,
                            func: func.clone(),
                            snippet: ws.snippet(fi, call.line),
                            witness,
                        });
                    }
                    // Locks the callee (transitively) acquires are taken
                    // while `g` is held: order-graph edges.
                    for ident in &locksets[target] {
                        if *ident != g.identity
                            && edge_keys.insert((g.identity.clone(), ident.clone()))
                        {
                            edges.push(LockEdge {
                                from: g.identity.clone(),
                                to: ident.clone(),
                                file: fi,
                                line: call.line,
                            });
                        }
                    }
                }
            }
            // Intra-fn nesting: any later acquisition inside g's span.
            for g2 in guards {
                if g2.pos > g.pos
                    && g2.line >= g.line
                    && g2.line <= g.end_line
                    && edge_keys.insert((g.identity.clone(), g2.identity.clone()))
                {
                    edges.push(LockEdge {
                        from: g.identity.clone(),
                        to: g2.identity.clone(),
                        file: fi,
                        line: g2.line,
                    });
                }
            }
        }
    }

    // --- lock-order cycles ----------------------------------------------
    for cycle in find_cycles(&edges) {
        let suppressed = cycle.iter().any(|&ei| {
            let e = &edges[ei];
            *lock_ok
                .entry((e.file, e.line))
                .or_insert_with(|| sup_lock.check(&ws, e.file, e.line, "-"))
        });
        if suppressed {
            continue;
        }
        let first = &edges[cycle[0]];
        let mut witness: Vec<String> = cycle.iter().map(|&ei| edges[ei].from.clone()).collect();
        witness.push(edges[cycle[0]].from.clone());
        *crate_viols
            .entry(crate_of(&ws.files[first.file].rel))
            .or_default() += 1;
        lock_violations.push(Finding {
            rule: "lock-order-cycle",
            path: ws.files[first.file].rel.clone(),
            line: first.line + 1,
            func: "-".into(),
            snippet: ws.snippet(first.file, first.line),
            witness,
        });
    }

    for v in &lock_violations {
        if v.rule != "lock-order-cycle" {
            *crate_viols.entry(crate_of(&v.path)).or_default() += 1;
        }
    }

    sup_alloc.audit_unused(&ws);
    sup_lock.audit_unused(&ws);
    let mut annotation_errors: Vec<Finding> = Vec::new();
    annotation_errors.append(&mut sup_alloc.errors);
    annotation_errors.append(&mut sup_lock.errors);
    annotation_errors.extend(reach.unmatched);

    alloc_violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    lock_violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
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

    Ok(HotAnalysis {
        fn_count: ws.fns.len(),
        edge_count: ws.edge_count,
        alloc_violations,
        lock_violations,
        annotation_errors,
        audited_alloc: sup_alloc.audited.len(),
        audited_lock: sup_lock.audited.len(),
        unreachable_alloc_sites,
        guard_count,
        lock_edge_count: edges.len(),
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
// Guard extraction
// ---------------------------------------------------------------------------

/// Char offset of each line's start in the file's flat stream.
fn line_starts(ws: &Workspace, fi: usize) -> Vec<usize> {
    let mut starts = Vec::with_capacity(ws.files[fi].view.code.len());
    let mut acc = 0usize;
    for l in &ws.files[fi].view.code {
        starts.push(acc);
        acc += l.chars().count() + 1;
    }
    starts
}

/// All `{`..`}` pairs inside `[start, end]` of the flat char stream.
fn block_pairs(chars: &[char], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut stack = Vec::new();
    let mut out = Vec::new();
    for (i, &c) in chars.iter().enumerate().take(end.min(chars.len() - 1) + 1).skip(start) {
        match c {
            '{' => stack.push(i),
            '}' => {
                if let Some(o) = stack.pop() {
                    out.push((o, i));
                }
            }
            _ => {}
        }
    }
    out
}

/// Every guard acquisition in `fid`'s body with its liveness span.
fn find_guards(ws: &Workspace, fid: usize) -> Vec<Guard> {
    let f = &ws.fns[fid];
    let fi = f.file;
    let view = &ws.files[fi].view;
    let flat = &ws.flats[fi];
    let starts = line_starts(ws, fi);
    let pairs = block_pairs(&flat.chars, f.body_start, f.body_end);
    let krate = &ws.files[fi].crate_name;
    let mut out = Vec::new();

    // `idx` indexes three parallel per-line arrays; an iterator over any
    // one of them would still need the position for the other two.
    #[allow(clippy::needless_range_loop)]
    for idx in f.start_line..=f.end_line.min(view.code.len().saturating_sub(1)) {
        if view.in_tests[idx] || ws.innermost_fn(fi, idx) != Some(fid) {
            continue;
        }
        let line = &view.code[idx];
        let mut acquisitions: Vec<(usize, String)> = Vec::new(); // (byte pos, receiver)
        for pat in GUARD_METHODS {
            for pos in pattern_positions(line, pat) {
                let recv = trailing_ident(&line[..pos]);
                let recv = if recv.is_empty() {
                    // Multi-line method chain: the receiver is the trailing
                    // identifier of the previous non-empty code line.
                    prev_trailing_ident(view, idx)
                } else {
                    recv
                };
                if recv.is_empty() {
                    continue;
                }
                acquisitions.push((pos, recv));
            }
        }
        for helper in GUARD_HELPERS {
            if !ws.has_fn_named(helper) {
                continue;
            }
            for pos in word_positions(line, helper) {
                let rest = &line[pos + helper.len()..];
                if !rest.starts_with('(') {
                    continue;
                }
                let before = line[..pos].trim_end();
                if before.ends_with('.') || before.ends_with(':') || before.ends_with("fn") {
                    continue; // method form, qualified path, or definition
                }
                let recv = last_ident_of_first_arg(&rest[1..]);
                if recv.is_empty() {
                    continue;
                }
                acquisitions.push((pos, recv));
            }
        }
        for (pos, recv) in acquisitions {
            let name = let_binding_before(line, pos);
            let acq_char = starts[idx] + line[..pos].chars().count();
            let end_line = match &name {
                None => idx,
                Some(n) => {
                    let close = pairs
                        .iter()
                        .filter(|(o, c)| *o < acq_char && acq_char < *c)
                        .min_by_key(|(o, c)| c - o)
                        .map(|(_, c)| flat.line_of[*c])
                        .unwrap_or_else(|| flat.line_of[f.body_end]);
                    let mut end = close;
                    for l in idx + 1..=close.min(view.code.len() - 1) {
                        if drop_releases(&view.code[l], n) {
                            end = l;
                            break;
                        }
                    }
                    end
                }
            };
            let base: &str = recv.trim_end_matches(|c: char| c.is_ascii_digit());
            let base = if base.is_empty() { recv.as_str() } else { base };
            out.push(Guard {
                name,
                identity: format!("{krate}/{base}"),
                line: idx,
                pos: acq_char,
                end_line,
            });
        }
    }
    out
}

/// Trailing identifier of a string slice (the receiver before a `.call`).
fn trailing_ident(s: &str) -> String {
    s.chars()
        .rev()
        .take_while(|&c| unicode_ident(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect()
}

/// Trailing identifier of the nearest previous non-empty code line.
fn prev_trailing_ident(view: &crate::lexer::FileView, idx: usize) -> String {
    for l in (0..idx).rev() {
        let t = view.code[l].trim_end();
        if t.is_empty() {
            continue;
        }
        return trailing_ident(t);
    }
    String::new()
}

/// Last identifier of the first call argument (`&self.peers` → `peers`).
fn last_ident_of_first_arg(s: &str) -> String {
    let mut depth = 0i32;
    let mut cur = String::new();
    let mut last = String::new();
    for c in s.chars() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' if depth == 0 => break,
            ')' | ']' => depth -= 1,
            ',' if depth == 0 => break,
            _ => {}
        }
        if unicode_ident(c) {
            cur.push(c);
        } else {
            if !cur.is_empty() {
                last = std::mem::take(&mut cur);
            }
        }
    }
    if !cur.is_empty() {
        last = cur;
    }
    last
}

/// The `let [mut] name =` binding governing an acquisition at `pos`.
fn let_binding_before(line: &str, pos: usize) -> Option<String> {
    let prefix = &line[..pos];
    let at = *word_positions(prefix, "let").last()?;
    let b: Vec<char> = prefix[at + 3..].chars().collect();
    let mut i = crate::callgraph::skip_ws_chars(&b, 0);
    let (first, after) = crate::callgraph::read_tok(&b, i);
    let name = if first == "mut" {
        i = crate::callgraph::skip_ws_chars(&b, after);
        crate::callgraph::read_tok(&b, i).0
    } else {
        first
    };
    if name.is_empty() || name == "_" {
        return None;
    }
    Some(name)
}

/// Does this line `drop(name)` (releasing the guard early)?
fn drop_releases(line: &str, name: &str) -> bool {
    for pos in word_positions(line, "drop") {
        let b: Vec<char> = line[pos + 4..].chars().collect();
        let mut i = crate::callgraph::skip_ws_chars(&b, 0);
        if b.get(i) != Some(&'(') {
            continue;
        }
        i = crate::callgraph::skip_ws_chars(&b, i + 1);
        if b.get(i) == Some(&'&') {
            i = crate::callgraph::skip_ws_chars(&b, i + 1);
        }
        let (ident, after) = crate::callgraph::read_tok(&b, i);
        let j = crate::callgraph::skip_ws_chars(&b, after);
        if ident == name && b.get(j) == Some(&')') {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Lock-order graph
// ---------------------------------------------------------------------------

/// Fixed point of "identities this fn (or anything it calls) acquires",
/// over the precision-filtered edge set.
fn transitive_locksets(hedges: &[Vec<usize>], guards_of: &[Vec<Guard>]) -> Vec<HashSet<String>> {
    let mut sets: Vec<HashSet<String>> = guards_of
        .iter()
        .map(|gs| gs.iter().map(|g| g.identity.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for fid in 0..hedges.len() {
            for &callee in &hedges[fid] {
                if sets[callee].is_empty() {
                    continue;
                }
                let add: Vec<String> = sets[callee]
                    .iter()
                    .filter(|i| !sets[fid].contains(*i))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    sets[fid].extend(add);
                }
            }
        }
        if !changed {
            return sets;
        }
    }
}

/// Cycles in the deduplicated edge list, each as edge indices. Every cycle
/// is reported once, from its lexicographically smallest node; self-loops
/// (same-lock re-entry) are length-1 cycles.
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<usize>> {
    let mut adj: HashMap<&str, Vec<usize>> = HashMap::new();
    for (ei, e) in edges.iter().enumerate() {
        adj.entry(e.from.as_str()).or_default().push(ei);
    }
    let mut nodes: Vec<&str> = adj.keys().copied().collect();
    nodes.sort_unstable();
    let mut out = Vec::new();
    for start in nodes {
        let mut path = Vec::new();
        let mut seen = HashSet::new();
        if search(start, start, &adj, edges, &mut path, &mut seen) {
            out.push(path);
        }
    }
    out
}

fn search(
    cur: &str,
    start: &str,
    adj: &HashMap<&str, Vec<usize>>,
    edges: &[LockEdge],
    path: &mut Vec<usize>,
    seen: &mut HashSet<String>,
) -> bool {
    let Some(outs) = adj.get(cur) else {
        return false;
    };
    for &ei in outs {
        let next = edges[ei].to.as_str();
        if next == start {
            path.push(ei);
            return true;
        }
        // Canonicalization: only walk nodes above `start`, so each cycle
        // is found exactly once (from its smallest node).
        if next < start || seen.contains(next) {
            continue;
        }
        seen.insert(next.to_string());
        path.push(ei);
        if search(next, start, adj, edges, path, seen) {
            return true;
        }
        path.pop();
    }
    false
}

#[cfg(test)]
mod tests;
