use super::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Build a throwaway workspace fixture: `files` are (rel path, source).
fn fixture(files: &[(&str, &str)]) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("ruru-account-check-{}-{n}", std::process::id()));
    for (rel, content) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture parent")).expect("mkdir");
        std::fs::write(path, content).expect("write fixture");
    }
    root
}

/// Analyze a fixture. It holds a few files, so most roots match nothing
/// in it; `callgraph` tests the `unmatched-root` finding.
fn run_on(files: &[(&str, &str)]) -> AccountAnalysis {
    let root = fixture(files);
    let mut a = analyze(&root).expect("analyze fixture");
    std::fs::remove_dir_all(&root).ok();
    a.annotation_errors.retain(|f| f.rule != "unmatched-root");
    a
}

fn rules(a: &AccountAnalysis) -> Vec<&'static str> {
    a.violations.iter().map(|v| v.rule).collect()
}

fn annotation_rules(a: &AccountAnalysis) -> Vec<&'static str> {
    a.annotation_errors.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------------------
// Discard-site detection
// ---------------------------------------------------------------------------

#[test]
fn unpaired_continue_in_rooted_loop_is_flagged() {
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker(xs: &[u8]) {\n\
         \x20   for x in xs {\n\
         \x20       if *x == 0 {\n\
         \x20           continue;\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    )]);
    assert_eq!(rules(&a), ["unaccounted-continue"]);
    assert_eq!(a.violations[0].witness, ["pipeline::dataplane_worker"]);
    assert_eq!(a.paired_sites, 0);
}

#[test]
fn continue_paired_with_counter_in_same_block_is_clean() {
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker(xs: &[u8]) {\n\
         \x20   for x in xs {\n\
         \x20       if *x == 0 {\n\
         \x20           r.counter_add(0, drops, 1);\n\
         \x20           continue;\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    )]);
    assert!(rules(&a).is_empty(), "{:?}", rules(&a));
    assert_eq!(a.paired_sites, 1);
}

#[test]
fn continue_paired_through_accounting_helper_is_clean() {
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker(xs: &[u8]) {\n\
         \x20   for x in xs {\n\
         \x20       if *x == 0 {\n\
         \x20           note_drop();\n\
         \x20           continue;\n\
         \x20       }\n\
         \x20   }\n\
         }\n\
         fn note_drop() {\n\
         \x20   r.counter_add(0, drops, 1);\n\
         }\n",
    )]);
    assert!(rules(&a).is_empty(), "{:?}", rules(&a));
    assert_eq!(a.paired_sites, 1);
}

#[test]
fn unpaired_try_is_flagged_with_call_chain_witness() {
    let a = run_on(&[(
        "crates/flow/src/lib.rs",
        "pub fn process_burst() {\n\
         \x20   let _x = helper();\n\
         }\n\
         fn helper() -> Option<u8> {\n\
         \x20   probe()?;\n\
         \x20   Some(1)\n\
         }\n\
         fn probe() -> Option<u8> {\n\
         \x20   Some(0)\n\
         }\n",
    )]);
    assert_eq!(rules(&a), ["unaccounted-try"]);
    assert_eq!(a.violations[0].witness, ["flow::process_burst", "flow::helper"]);
}

#[test]
fn typed_reject_is_the_accounting_currency() {
    // Propagating a typed `Reject` (or wire's `Error`, converted at the
    // classify boundary) is accounted by construction: the engine
    // catch-site records per-cause.
    let a = run_on(&[(
        "crates/flow/src/lib.rs",
        "pub fn process_burst(bad: bool) -> Result<(), Reject> {\n\
         \x20   if bad {\n\
         \x20       return Err(Reject::BadTcp);\n\
         \x20   }\n\
         \x20   other()?;\n\
         \x20   Ok(())\n\
         }\n\
         fn other() -> Result<(), u8> {\n\
         \x20   if true {\n\
         \x20       return Err(Error::Truncated);\n\
         \x20   }\n\
         \x20   Ok(())\n\
         }\n",
    )]);
    // The `other()?` at the call site is still a plain `?` on a non-Reject
    // line — only the typed-error lines themselves are exempt.
    assert_eq!(rules(&a), ["unaccounted-try"]);
    assert_eq!(a.violations[0].line, 5);
}

#[test]
fn let_underscore_on_send_result_is_flagged() {
    let a = run_on(&[(
        "crates/mq/src/lib.rs",
        "pub fn send_batch(x: u8) {\n\
         \x20   let _ = tx.send(x);\n\
         }\n",
    )]);
    assert_eq!(rules(&a), ["discarded-send"]);
}

#[test]
fn bus_closed_catch_site_shape_is_paired() {
    // The PR 1 regression shape: a failed batch send is caught by the
    // engine and recorded as Reject::BusClosed — the `Err(_)` arm is
    // paired by the `.record(` in its arm body.
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker() {\n\
         \x20   match bus.send_batch(batch) {\n\
         \x20       Ok(_) => {}\n\
         \x20       Err(_) => {\n\
         \x20           rejects.record(Reject::BusClosed);\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    )]);
    assert!(rules(&a).is_empty(), "{:?}", rules(&a));
    assert_eq!(a.paired_sites, 1);
}

#[test]
fn bus_closed_drop_without_record_regresses() {
    // Deleting the catch-site record reintroduces the silent-loss bug the
    // analyzer exists to catch.
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker() {\n\
         \x20   match bus.send_batch(batch) {\n\
         \x20       Ok(_) => {}\n\
         \x20       Err(_) => {}\n\
         \x20   }\n\
         }\n",
    )]);
    assert_eq!(rules(&a), ["match-drop"]);
    assert_eq!(a.violations[0].witness, ["pipeline::dataplane_worker"]);
}

#[test]
fn discards_outside_the_reachable_dataplane_are_not_fatal() {
    let a = run_on(&[(
        "crates/flow/src/lib.rs",
        "pub fn cold_path(xs: &[u8]) {\n\
         \x20   for x in xs {\n\
         \x20       if *x == 0 {\n\
         \x20           continue;\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    )]);
    assert!(rules(&a).is_empty(), "{:?}", rules(&a));
    assert_eq!(a.unreachable_sites, 1);
}

#[test]
fn baseline_and_tsdb_files_are_exempt() {
    let a = run_on(&[
        (
            "crates/flow/src/baseline/pping.rs",
            "pub fn process_burst(xs: &[u8]) {\n\
             \x20   for x in xs {\n\
             \x20       if *x == 0 {\n\
             \x20           continue;\n\
             \x20       }\n\
             \x20   }\n\
             }\n",
        ),
        (
            "crates/tsdb/src/lib.rs",
            "pub fn write() -> Option<u8> {\n\
             \x20   probe()?;\n\
             \x20   Some(1)\n\
             }\n",
        ),
    ]);
    assert!(rules(&a).is_empty(), "{:?}", rules(&a));
}

// ---------------------------------------------------------------------------
// Counter liveness + conservation manifest
// ---------------------------------------------------------------------------

/// A manifest file with no terms, so declaring metrics in a fixture does
/// not also trip the missing-manifest rule.
const EMPTY_MANIFEST: (&str, &str) = (
    "crates/pipeline/src/conservation.rs",
    "pub const IDENTITIES: u8 = 0;\n",
);

#[test]
fn declared_counter_with_no_write_site_is_dead() {
    let a = run_on(&[
        (
            "crates/telemetry/src/lib.rs",
            "pub fn build() {\n\
             \x20   let mut b = RegistryBuilder::new();\n\
             \x20   let dead = b.counter(\"never_written\");\n\
             }\n",
        ),
        EMPTY_MANIFEST,
    ]);
    assert_eq!(rules(&a), ["dead-counter"]);
    assert_eq!(a.violations[0].func, "metric `never_written`");
    assert_eq!(a.metrics_declared, 1);
}

#[test]
fn counter_with_reachable_write_site_is_live() {
    let a = run_on(&[
        (
            "crates/telemetry/src/lib.rs",
            "pub fn build() {\n\
             \x20   let mut b = RegistryBuilder::new();\n\
             \x20   let hits = b.counter(\"hits\");\n\
             }\n\
             pub fn snapshot_into() {\n\
             \x20   r.counter_add(0, hits, 1);\n\
             }\n",
        ),
        EMPTY_MANIFEST,
    ]);
    assert!(rules(&a).is_empty(), "{:?}", rules(&a));
}

#[test]
fn identity_term_without_declared_metric_is_flagged() {
    let a = run_on(&[
        (
            "crates/telemetry/src/lib.rs",
            "pub fn build() {\n\
             \x20   let mut b = RegistryBuilder::new();\n\
             \x20   let real = b.counter(\"real\");\n\
             }\n\
             pub fn snapshot_into() {\n\
             \x20   r.counter_add(0, real, 1);\n\
             }\n",
        ),
        (
            "crates/pipeline/src/conservation.rs",
            "pub const IDENTITIES: &[(u8, u8)] = &[\n\
             \x20   (Counter(\"real\"), Counter(\"ghost\")),\n\
             ];\n",
        ),
    ]);
    assert_eq!(rules(&a), ["identity-term-missing"]);
    assert_eq!(a.violations[0].func, "term `ghost`");
    assert_eq!(a.identity_terms, 2);
}

#[test]
fn declared_metrics_without_a_manifest_fail_loudly() {
    let a = run_on(&[(
        "crates/telemetry/src/lib.rs",
        "pub fn build() {\n\
         \x20   let mut b = RegistryBuilder::new();\n\
         \x20   let hits = b.counter(\"hits\");\n\
         }\n\
         pub fn snapshot_into() {\n\
         \x20   r.counter_add(0, hits, 1);\n\
         }\n",
    )]);
    assert_eq!(rules(&a), ["conservation-manifest"]);
}

// ---------------------------------------------------------------------------
// Annotation audit
// ---------------------------------------------------------------------------

#[test]
fn audited_annotation_suppresses_with_reason() {
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker(xs: &[u8]) {\n\
         \x20   for x in xs {\n\
         \x20       // account-ok: tail skip holds no record\n\
         \x20       continue;\n\
         \x20   }\n\
         }\n",
    )]);
    assert!(rules(&a).is_empty(), "{:?}", rules(&a));
    assert!(annotation_rules(&a).is_empty(), "{:?}", annotation_rules(&a));
    assert_eq!(a.audited.len(), 1);
    assert_eq!(a.audited[0].2, "tail skip holds no record");
}

#[test]
fn empty_reason_annotation_is_a_violation() {
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker(xs: &[u8]) {\n\
         \x20   for x in xs {\n\
         \x20       // account-ok:\n\
         \x20       continue;\n\
         \x20   }\n\
         }\n",
    )]);
    assert!(rules(&a).is_empty(), "{:?}", rules(&a));
    assert_eq!(annotation_rules(&a), ["account-ok-empty"]);
}

#[test]
fn unused_annotation_is_a_violation() {
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker() {\n\
         \x20   // account-ok: nothing here discards\n\
         \x20   let x = 1;\n\
         \x20   let _y = x;\n\
         }\n",
    )]);
    assert!(rules(&a).is_empty(), "{:?}", rules(&a));
    assert_eq!(annotation_rules(&a), ["account-ok-unused"]);
}

// ---------------------------------------------------------------------------
// Shared JSON report shape
// ---------------------------------------------------------------------------

#[test]
fn json_section_carries_findings_and_audit_count() {
    let a = run_on(&[(
        "crates/pipeline/src/engine.rs",
        "pub fn dataplane_worker(xs: &[u8]) {\n\
         \x20   for x in xs {\n\
         \x20       if *x == 0 {\n\
         \x20           continue;\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    )]);
    let json = json_section(&a);
    assert!(json.contains("\"analyzer\":\"account-check\""), "{json}");
    assert!(json.contains("\"rule\":\"unaccounted-continue\""), "{json}");
    assert!(json.contains("pipeline::dataplane_worker"), "{json}");
}
