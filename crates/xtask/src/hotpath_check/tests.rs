use super::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Build a throwaway workspace fixture: `files` are (rel path, source).
fn fixture(files: &[(&str, &str)]) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("ruru-hotpath-check-{}-{n}", std::process::id()));
    for (rel, content) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture parent")).expect("mkdir");
        std::fs::write(path, content).expect("write fixture");
    }
    root
}

/// Analyze a fixture. It holds a few files, so most roots match nothing
/// in it; `callgraph` tests the `unmatched-root` finding.
fn run_on(files: &[(&str, &str)]) -> HotAnalysis {
    let root = fixture(files);
    let mut a = analyze(&root).expect("analyze fixture");
    std::fs::remove_dir_all(&root).ok();
    a.annotation_errors.retain(|f| f.rule != "unmatched-root");
    a
}

fn alloc_rules(a: &HotAnalysis) -> Vec<&'static str> {
    a.alloc_violations.iter().map(|v| v.rule).collect()
}

fn lock_rules(a: &HotAnalysis) -> Vec<&'static str> {
    a.lock_violations.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------------------
// Allocation reachability
// ---------------------------------------------------------------------------

#[test]
fn alloc_classes_classified_in_rooted_wire_fn() {
    let a = run_on(&[(
        "crates/wire/src/lib.rs",
        "pub fn parse(v: Vec<u8>) {\n\
         \x20   let b = Box::new(1);\n\
         \x20   let w = vec![1, 2];\n\
         \x20   let s = format!(\"x\");\n\
         \x20   let c: Vec<u8> = v.iter().copied().collect();\n\
         \x20   let t = v.to_vec();\n\
         \x20   let a = std::sync::Arc::new(1);\n\
         \x20   let p = std::sync::mpsc::sync_channel(4);\n\
         }\n",
    )]);
    let mut rules = alloc_rules(&a);
    rules.sort_unstable();
    assert_eq!(
        rules,
        [
            "alloc-arc",
            "alloc-box",
            "alloc-chan",
            "alloc-clone",
            "alloc-collect",
            "alloc-str",
            "alloc-vec",
        ]
    );
    assert!(a.lock_violations.is_empty());
}

#[test]
fn alloc_witness_chain_reaches_helper_from_dataplane_root() {
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker() { setup() }\n\
         fn setup() { let _b = Box::new(0u64); }\n",
    )]);
    assert_eq!(alloc_rules(&a), ["alloc-box"]);
    assert_eq!(
        a.alloc_violations[0].witness,
        ["pipeline::dataplane_worker", "pipeline::setup"]
    );
}

#[test]
fn grow_pattern_fires_without_workspace_shadow() {
    let a = run_on(&[(
        "crates/wire/src/lib.rs",
        "pub fn parse(v: &mut Vec<u8>) { v.push(0); }\n",
    )]);
    assert_eq!(alloc_rules(&a), ["alloc-grow"]);
}

#[test]
fn grow_pattern_delegated_to_workspace_fn() {
    // `Ring::push` exists, so `.push(` on an untyped receiver is left to
    // the call graph (Ring::push's own body is scanned and clean).
    let a = run_on(&[(
        "crates/wire/src/lib.rs",
        "pub struct Ring;\n\
         impl Ring {\n\
         \x20   pub fn push(&mut self, _v: u8) {}\n\
         }\n\
         pub fn parse(r: &mut Ring) { r.push(0); }\n",
    )]);
    assert!(alloc_rules(&a).is_empty(), "got {:?}", a.alloc_violations);
}

#[test]
fn unreachable_alloc_reported_not_fatal() {
    let a = run_on(&[(
        "crates/flow/src/lib.rs",
        "fn debug_dump() -> String { format!(\"x\") }\n",
    )]);
    assert!(a.alloc_violations.is_empty());
    assert_eq!(a.unreachable_alloc_sites, 1);
}

#[test]
fn alloc_ok_suppresses_and_is_audited() {
    let a = run_on(&[(
        "crates/wire/src/lib.rs",
        "pub fn parse() {\n\
         \x20   // alloc-ok: scratch reused from a thread-local pool\n\
         \x20   let _b = Box::new(0u64);\n\
         }\n",
    )]);
    assert!(a.alloc_violations.is_empty());
    assert!(a.annotation_errors.is_empty());
    assert_eq!(a.audited_alloc, 1);
}

#[test]
fn empty_alloc_ok_reason_is_a_violation() {
    let a = run_on(&[(
        "crates/wire/src/lib.rs",
        "pub fn parse() {\n\
         \x20   // alloc-ok:\n\
         \x20   let _b = Box::new(0u64);\n\
         }\n",
    )]);
    assert_eq!(
        a.annotation_errors.iter().map(|v| v.rule).collect::<Vec<_>>(),
        ["alloc-ok-empty"]
    );
}

#[test]
fn unused_alloc_ok_is_a_violation() {
    let a = run_on(&[(
        "crates/wire/src/lib.rs",
        "// alloc-ok: stale claim, nothing allocates here\n\
         pub fn parse() -> u8 { 0 }\n",
    )]);
    assert_eq!(
        a.annotation_errors.iter().map(|v| v.rule).collect::<Vec<_>>(),
        ["alloc-ok-unused"]
    );
}

// ---------------------------------------------------------------------------
// Lock discipline: guards across blocking calls / allocation
// ---------------------------------------------------------------------------

#[test]
fn guard_across_write_all_fires_pr5_regression_shape() {
    // The TcpPublisher bug fixed by hand in PR 5: peers mutex held across
    // a blocking socket write.
    let a = run_on(&[(
        "crates/mq/src/tcp.rs",
        "pub struct Publisher;\n\
         impl Publisher {\n\
         \x20   pub fn publish(&self) {\n\
         \x20       let mut peers = self.peers.lock().unwrap();\n\
         \x20       for p in peers.iter_mut() {\n\
         \x20           p.stream.write_all(b\"frame\").ok();\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    )]);
    assert_eq!(lock_rules(&a), ["lock-across-blocking"]);
    assert_eq!(a.lock_violations[0].line, 6);
    assert_eq!(a.lock_violations[0].func, "mq::publish");
}

#[test]
fn guard_across_alloc_fires() {
    let a = run_on(&[(
        "crates/flow/src/lib.rs",
        "fn helper(m: &std::sync::Mutex<Vec<u64>>) {\n\
         \x20   let mut g = m.lock().unwrap();\n\
         \x20   let _b = Box::new(7u64);\n\
         }\n",
    )]);
    // Lock discipline applies even where allocation reachability does not
    // (fn is not reachable from a steady-state root).
    assert!(a.alloc_violations.is_empty());
    assert_eq!(a.unreachable_alloc_sites, 1);
    assert_eq!(lock_rules(&a), ["lock-across-alloc"]);
}

#[test]
fn drop_releases_guard_before_blocking_call() {
    let a = run_on(&[(
        "crates/mq/src/lib.rs",
        "pub fn f(m: &std::sync::Mutex<u32>) {\n\
         \x20   let g = m.lock().unwrap();\n\
         \x20   drop(g);\n\
         \x20   std::thread::park();\n\
         }\n",
    )]);
    assert!(lock_rules(&a).is_empty(), "got {:?}", a.lock_violations);
}

#[test]
fn block_scoped_guard_released_before_blocking_call() {
    // The pubsub publish shape: guard lives in an inner block, the
    // blocking call happens after it closes.
    let a = run_on(&[(
        "crates/mq/src/lib.rs",
        "pub fn publish(&self) {\n\
         \x20   {\n\
         \x20       let subs = self.subs.read();\n\
         \x20       deliver(&subs);\n\
         \x20   }\n\
         \x20   self.sock.write_all(b\"x\").ok();\n\
         }\n\
         fn deliver(_s: &u32) {}\n",
    )]);
    assert!(lock_rules(&a).is_empty(), "got {:?}", a.lock_violations);
}

#[test]
fn condvar_wait_on_own_guard_exempt() {
    let a = run_on(&[(
        "crates/mq/src/chan.rs",
        "pub struct Chan;\n\
         impl Chan {\n\
         \x20   pub fn recv(&self) {\n\
         \x20       let mut inner = self.m.lock().unwrap();\n\
         \x20       while inner.empty {\n\
         \x20           inner = self.cv.wait(inner).unwrap();\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    )]);
    assert!(lock_rules(&a).is_empty(), "got {:?}", a.lock_violations);
}

#[test]
fn interprocedural_blocking_through_callee() {
    let a = run_on(&[(
        "crates/nic/src/lib.rs",
        "pub fn outer(m: &std::sync::Mutex<u32>) {\n\
         \x20   let g = m.lock().unwrap();\n\
         \x20   helper();\n\
         }\n\
         fn helper() { std::thread::park(); }\n",
    )]);
    assert_eq!(lock_rules(&a), ["lock-across-blocking"]);
    assert_eq!(a.lock_violations[0].witness, ["nic::outer", "nic::helper"]);
}

#[test]
fn workspace_lock_helper_produces_a_guard() {
    // The tcp.rs `plock` idiom: a poison-recovering helper returns the
    // guard; the identity comes from the helper's argument.
    let a = run_on(&[(
        "crates/mq/src/tcp.rs",
        "fn plock(m: &std::sync::Mutex<u32>) -> u32 { m.lock().unwrap_or_else(|e| 0) }\n\
         pub fn publish(&self) {\n\
         \x20   let mut peers = plock(&self.peers);\n\
         \x20   self.stream.write_all(b\"x\").ok();\n\
         }\n",
    )]);
    assert_eq!(lock_rules(&a), ["lock-across-blocking"]);
    assert_eq!(a.lock_violations[0].line, 4);
}

#[test]
fn ambiguous_method_call_does_not_propagate_blocking() {
    // Two unrelated types both define `helper`; a method call on an
    // unknown receiver resolves to both, so the precision-filtered edge
    // set drops it — no fabricated lock-across-blocking witness.
    let a = run_on(&[(
        "crates/mq/src/lib.rs",
        "pub struct A;\n\
         impl A {\n\
         \x20   pub fn helper(&self) { std::thread::park(); }\n\
         }\n\
         pub struct B;\n\
         impl B {\n\
         \x20   pub fn helper(&self) {}\n\
         }\n\
         pub fn caller(&self, m: &std::sync::Mutex<u32>) {\n\
         \x20   let g = m.lock().unwrap();\n\
         \x20   self.x.helper();\n\
         \x20   drop(g);\n\
         }\n",
    )]);
    assert!(a.lock_violations.is_empty(), "{:?}", a.lock_violations);
}

#[test]
fn tsdb_sealing_files_exempt_but_ingest_path_is_checked() {
    // Only the cold sealing/compaction files (seal.rs, compress.rs) are
    // exempt from allocation *reachability* — their sites count as outside
    // the steady-state roots. The striped ingest path in the rest of the
    // tsdb crate is held to the same standard as any hot code, and lock
    // discipline applies everywhere in the crate.
    let a = run_on(&[
        (
            "crates/pipeline/src/lib.rs",
            "pub fn detector_loop() { seal_open_chunks(); write_point(); }\n",
        ),
        (
            "crates/tsdb/src/seal.rs",
            "pub fn seal_open_chunks() { let _v = vec![0u8; 4]; }\n",
        ),
        (
            "crates/tsdb/src/store.rs",
            "pub fn write_point() { let _v = vec![0u8; 4]; }\n\
             pub fn flush(m: &std::sync::Mutex<u32>) {\n\
             \x20   let g = m.lock().unwrap();\n\
             \x20   std::thread::park();\n\
             }\n",
        ),
    ]);
    // The sealing allocation is swallowed by the file exemption; the
    // ingest-path allocation in store.rs is reported.
    assert_eq!(alloc_rules(&a), ["alloc-vec"]);
    assert_eq!(
        a.alloc_violations[0].witness,
        ["pipeline::detector_loop", "tsdb::write_point"]
    );
    assert!(a.unreachable_alloc_sites >= 1);
    assert_eq!(lock_rules(&a), ["lock-across-blocking"]);
}

// ---------------------------------------------------------------------------
// Lock discipline: acquisition-order cycles
// ---------------------------------------------------------------------------

#[test]
fn lock_order_cycle_flagged() {
    let a = run_on(&[(
        "crates/mq/src/lib.rs",
        "pub struct S;\n\
         impl S {\n\
         \x20   pub fn a(&self) {\n\
         \x20       let g1 = self.x.lock().unwrap();\n\
         \x20       let g2 = self.y.lock().unwrap();\n\
         \x20   }\n\
         \x20   pub fn b(&self) {\n\
         \x20       let g1 = self.y.lock().unwrap();\n\
         \x20       let g2 = self.x.lock().unwrap();\n\
         \x20   }\n\
         }\n",
    )]);
    assert_eq!(lock_rules(&a), ["lock-order-cycle"]);
    let w = &a.lock_violations[0].witness;
    assert!(w.contains(&"mq/x".to_string()) && w.contains(&"mq/y".to_string()));
}

#[test]
fn benign_diamond_order_is_clean() {
    // Both fns take x before y: a consistent order, no cycle.
    let a = run_on(&[(
        "crates/mq/src/lib.rs",
        "pub struct S;\n\
         impl S {\n\
         \x20   pub fn a(&self) {\n\
         \x20       let g1 = self.x.lock().unwrap();\n\
         \x20       let g2 = self.y.lock().unwrap();\n\
         \x20   }\n\
         \x20   pub fn b(&self) {\n\
         \x20       let g1 = self.x.lock().unwrap();\n\
         \x20       let g2 = self.y.lock().unwrap();\n\
         \x20   }\n\
         }\n",
    )]);
    assert!(lock_rules(&a).is_empty(), "got {:?}", a.lock_violations);
    assert_eq!(a.lock_edge_count, 1);
}

#[test]
fn interprocedural_cycle_through_callee_lockset() {
    // a holds x and calls b, which takes y; c takes y then x: x→y→x.
    let a = run_on(&[(
        "crates/nic/src/lib.rs",
        "pub fn a(&self) {\n\
         \x20   let g = self.x.lock().unwrap();\n\
         \x20   b();\n\
         }\n\
         pub fn b(&self) {\n\
         \x20   let g = self.y.lock().unwrap();\n\
         }\n\
         pub fn c(&self) {\n\
         \x20   let g = self.y.lock().unwrap();\n\
         \x20   let h = self.x.lock().unwrap();\n\
         }\n",
    )]);
    assert_eq!(lock_rules(&a), ["lock-order-cycle"]);
}

// ---------------------------------------------------------------------------
// lock-ok suppression
// ---------------------------------------------------------------------------

#[test]
fn lock_ok_at_acquisition_covers_the_span() {
    let a = run_on(&[(
        "crates/mq/src/lib.rs",
        "pub fn shutdown(&self) {\n\
         \x20   // lock-ok: drop path, final blocking flush is intended\n\
         \x20   let g = self.peers.lock().unwrap();\n\
         \x20   self.stream.write_all(b\"bye\").ok();\n\
         }\n",
    )]);
    assert!(a.lock_violations.is_empty(), "got {:?}", a.lock_violations);
    assert!(a.annotation_errors.is_empty());
    assert_eq!(a.audited_lock, 1);
}

#[test]
fn empty_lock_ok_reason_is_a_violation() {
    let a = run_on(&[(
        "crates/mq/src/lib.rs",
        "pub fn shutdown(&self) {\n\
         \x20   // lock-ok:\n\
         \x20   let g = self.peers.lock().unwrap();\n\
         \x20   self.stream.write_all(b\"bye\").ok();\n\
         }\n",
    )]);
    assert_eq!(
        a.annotation_errors.iter().map(|v| v.rule).collect::<Vec<_>>(),
        ["lock-ok-empty"]
    );
}

#[test]
fn unused_lock_ok_is_a_violation() {
    let a = run_on(&[(
        "crates/mq/src/lib.rs",
        "// lock-ok: stale claim, no guard crosses anything here\n\
         pub fn f() -> u8 { 0 }\n",
    )]);
    assert_eq!(
        a.annotation_errors.iter().map(|v| v.rule).collect::<Vec<_>>(),
        ["lock-ok-unused"]
    );
}
