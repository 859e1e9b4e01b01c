//! `cargo xtask lint` — the concurrency invariants rustc cannot enforce
//! (see DESIGN.md §9). Rules:
//!
//! 1. **unsafe-allowlist** — `unsafe` code may only appear in the modules
//!    that implement the two lock-free structures (`ruru-nic`'s `ring.rs`
//!    and `queue.rs`) and in the model checker itself (`crates/loom`).
//! 2. **safety-comment** — every `unsafe` block or `unsafe impl` must have
//!    a `// SAFETY:` comment on the same line or in the comment block
//!    immediately above it.
//! 3. **seqcst-ban** — `Ordering::SeqCst` is banned (`crates/loom` exempt).
//! 4. **relaxed-head-tail** — a `Relaxed` access on a line touching the
//!    ring's `head`/`tail` counters must carry a `lint: relaxed-ok` comment.
//! 5. **sleep-ban** — `thread::sleep` may not appear in the poll-mode hot
//!    path; a drained RX lcore sleeps one coalescing period that a
//!    half-full ring or shutdown can end (`RxQueue::park_moderated`), an
//!    idle one parks until the port wakes it (`RxQueue::park_while_empty`),
//!    and other stages block on their feed.
//! 6. **raw-atomic-import** — inside the shimmed crates (`ruru-nic`,
//!    `ruru-mq`), production code must take atomics from the crate's
//!    `sync` shim, never `std::sync::atomic` directly.
//! 7. **unused-pub** — a `pub fn` in a library crate's `src/` must be named
//!    in code by some file outside that `src/`: another crate, a `src/bin/`,
//!    a `tests/` or `benches/` file, the umbrella crate's `src/` and
//!    `tests/`, `examples/` or `perfbench/src`. Comments and strings do not
//!    count. A fn only its own crate calls is `pub(crate)` or private, so
//!    rustc's `dead_code` lint sees it; the exceptions are [`UNUSED_PUB_OK`].
//!
//! Test code (`mod tests` regions, `tests/` files, `benches/`) is exempt
//! from 4–6.

use crate::lexer::{annotated_above, collect_rs_files, lex, unicode_ident, FileView};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// The library crates whose `pub fn`s rule 7 checks (`crates/<name>/src`).
const LIBRARY_CRATES: [&str; 11] = [
    "analytics", "flow", "gen", "geo", "mq", "nic", "pipeline", "telemetry", "tsdb", "viz",
    "wire",
];

/// Rule 7's exceptions: `(path, fn name, reason)`. Each needs a reason,
/// and an entry that excuses nothing is itself a finding.
const UNUSED_PUB_OK: &[(&str, &str, &str)] = &[
    (
        "crates/tsdb/src/store.rs",
        "enforce_retention",
        "the retention policy that bounds the store's memory; the pipeline is to call it",
    ),
    (
        "crates/analytics/src/filter.rs",
        "and",
        "the only way to add a criterion to a FilterSpec, the paper's example extension module",
    ),
];

/// Run the lint over `<root>/crates`, printing violations.
pub fn lint(root: &Path) -> ExitCode {
    match lint_dir(root) {
        Ok((files, violations)) => {
            if violations.is_empty() {
                println!("xtask lint: {files} files clean");
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Collect every violation under `<root>/crates`, reading `src/`, `tests/`,
/// `examples/` and `perfbench/src` as users for rule 7; returns (files
/// read, violations). Separated from [`lint`] so fixture tests can drive it.
pub fn lint_dir(root: &Path) -> Result<(usize, Vec<Violation>), String> {
    let mut paths = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
        collect_rs_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, source));
    }
    Ok((files.len(), check_files(&files)))
}

/// Apply rules 1–6 to every file under `crates/` and rule 7 across all of
/// `files` (workspace-relative path, source).
pub fn check_files(files: &[(String, String)]) -> Vec<Violation> {
    let views: Vec<FileView> = files.iter().map(|(_, src)| lex(src)).collect();
    let mut out = Vec::new();
    for ((path, _), view) in files.iter().zip(&views) {
        if path.starts_with("crates/") {
            out.extend(check_view(path, view));
        }
    }
    out.extend(unused_pub(files, &views));
    out
}

/// The library crate whose non-binary `src/` holds `path`, if any.
fn library_src(path: &str) -> Option<&'static str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, inner) = rest.split_once('/')?;
    let krate = LIBRARY_CRATES.iter().find(|c| **c == name)?;
    (inner.starts_with("src/") && !inner.starts_with("src/bin/")).then_some(*krate)
}

/// The name declared by a bare `pub fn` (qualifiers allowed, `pub(…)` not).
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut words = line.split_whitespace();
    if words.next()? != "pub" {
        return None;
    }
    let mut word = words.next()?;
    while matches!(word, "const" | "unsafe" | "async") {
        word = words.next()?;
    }
    if word != "fn" {
        return None;
    }
    let name = words.next()?;
    let end = name.find(|c: char| !unicode_ident(c)).unwrap_or(name.len());
    (end > 0).then(|| &name[..end])
}

/// Rule 7: every library-crate `pub fn` must be named in code outside its
/// crate's `src/`.
fn unused_pub(files: &[(String, String)], views: &[FileView]) -> Vec<Violation> {
    // Where each identifier is named: `Some(krate)` while every use is in
    // that library crate's `src/`, `None` once any use is elsewhere.
    let mut named_only_in: HashMap<&str, Option<&str>> = HashMap::new();
    for ((path, _), view) in files.iter().zip(views) {
        let owner = library_src(path);
        for line in &view.code {
            for word in line.split(|c: char| !unicode_ident(c)).filter(|w| !w.is_empty()) {
                named_only_in
                    .entry(word)
                    .and_modify(|only| {
                        if *only != owner {
                            *only = None;
                        }
                    })
                    .or_insert(owner);
            }
        }
    }
    let mut out = Vec::new();
    let mut excused = [false; UNUSED_PUB_OK.len()];
    for ((path, _), view) in files.iter().zip(views) {
        let Some(krate) = library_src(path) else {
            continue;
        };
        for (idx, line) in view.code.iter().enumerate() {
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            let used_outside = named_only_in.get(name) != Some(&Some(krate));
            if view.in_tests[idx] || used_outside {
                continue;
            }
            let entry = UNUSED_PUB_OK
                .iter()
                .position(|(p, n, _)| *p == path.as_str() && *n == name);
            if let Some(i) = entry {
                excused[i] = true;
                continue;
            }
            out.push(Violation {
                path: path.clone(),
                line: idx + 1,
                rule: "unused-pub",
                message: format!(
                    "`pub fn {name}` is named by nothing outside crates/{krate}/src; make it pub(crate) or private"
                ),
            });
        }
    }
    // A stale entry is reported only when its file was read, so fixtures
    // without it stay quiet.
    for ((path, name, _), excused) in UNUSED_PUB_OK.iter().zip(excused) {
        if !excused && files.iter().any(|(p, _)| p == path) {
            out.push(Violation {
                path: path.to_string(),
                line: 1,
                rule: "unused-pub",
                message: format!("allowlist entry `{name}` excuses no unused `pub fn`; remove it"),
            });
        }
    }
    out
}

/// One lint finding, displayed as `path:line: [rule] message`.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Files allowed to contain `unsafe` (the audited lock-free cores and the
/// model checker).
fn unsafe_allowed(path: &str) -> bool {
    path == "crates/nic/src/ring.rs"
        || path == "crates/nic/src/queue.rs"
        // Burst prefetch staging issues `_mm_prefetch` cache hints.
        || path == "crates/flow/src/table/burst.rs"
        // The steady-state allocation audits install a counting
        // `#[global_allocator]` — inherently an `unsafe impl`.
        || path == "crates/flow/tests/alloc_steady_state.rs"
        || path == "crates/telemetry/tests/alloc_steady_state.rs"
        || path == "crates/tsdb/tests/alloc_stripe_ingest.rs"
        || path == "crates/bench/src/alloc.rs"
        || path.starts_with("crates/loom/")
        || path.starts_with("crates/xtask/")
}

/// Crates exempt from the SeqCst ban (the checker dispatches on orderings;
/// xtask's own sources spell them in lint rules and tests).
fn seqcst_allowed(path: &str) -> bool {
    path.starts_with("crates/loom/") || path.starts_with("crates/xtask/")
}

/// Production code of the shimmed crates: must import atomics via `sync`.
fn shimmed(path: &str) -> bool {
    (path.starts_with("crates/nic/src/")
        || path.starts_with("crates/mq/src/")
        || path.starts_with("crates/telemetry/src/"))
        && !path.ends_with("/sync.rs")
}

/// Hot-path modules where `thread::sleep` is banned.
fn hot_path(path: &str) -> bool {
    path.starts_with("crates/nic/src/")
        || path.starts_with("crates/flow/src/table/")
        || path.starts_with("crates/telemetry/src/")
        || path == "crates/pipeline/src/engine.rs"
        || path == "crates/pipeline/src/telemetry.rs"
}

/// Integration-test / bench files: exempt from the style rules (4–6).
fn test_file(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/")
}

/// Apply rules 1–6 to one lexed file.
fn check_view(path: &str, view: &FileView) -> Vec<Violation> {
    let mut out = Vec::new();
    let push = |out: &mut Vec<Violation>, line: usize, rule: &'static str, message: String| {
        out.push(Violation {
            path: path.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    for (idx, line) in view.code.iter().enumerate() {
        let has_word = |w: &str| {
            line.match_indices(w).any(|(pos, _)| {
                let before = line[..pos].chars().next_back();
                let after = line[pos + w.len()..].chars().next();
                !before.is_some_and(unicode_ident) && !after.is_some_and(unicode_ident)
            })
        };

        // Rule 1 + 2: unsafe allowlist and SAFETY comments.
        if has_word("unsafe") {
            if !unsafe_allowed(path) {
                push(
                    &mut out,
                    idx,
                    "unsafe-allowlist",
                    "`unsafe` outside the audited lock-free modules (ring.rs, queue.rs, crates/loom)"
                        .into(),
                );
            } else if !annotated_above(view, idx, "SAFETY:") {
                push(
                    &mut out,
                    idx,
                    "safety-comment",
                    "`unsafe` without a `// SAFETY:` comment on or directly above it".into(),
                );
            }
        }

        // Rule 3: SeqCst ban.
        if line.contains("SeqCst") && !seqcst_allowed(path) {
            push(
                &mut out,
                idx,
                "seqcst-ban",
                "`Ordering::SeqCst` is banned; use the weakest ordering that is provably sufficient"
                    .into(),
            );
        }

        let in_test_code = view.in_tests[idx] || test_file(path);

        // Rule 4: Relaxed on head/tail needs a relaxed-ok annotation.
        if !in_test_code
            && !seqcst_allowed(path)
            && line.contains("Relaxed")
            && (has_word("head") || has_word("tail"))
            && !annotated_above(view, idx, "lint: relaxed-ok")
        {
            push(
                &mut out,
                idx,
                "relaxed-head-tail",
                "`Relaxed` access to a head/tail counter without a `lint: relaxed-ok` justification"
                    .into(),
            );
        }

        // Rule 5: no sleeping on the hot path.
        if !in_test_code && hot_path(path) && line.contains("thread::sleep") {
            push(
                &mut out,
                idx,
                "sleep-ban",
                "`thread::sleep` in a poll-mode hot module; park until woken or block on the feed"
                    .into(),
            );
        }

        // Rule 6: shimmed crates must not bypass the sync shim.
        if !in_test_code && shimmed(path) && line.contains("std::sync::atomic") {
            push(
                &mut out,
                idx,
                "raw-atomic-import",
                "raw `std::sync::atomic` in a shimmed crate; import via the crate's `sync` module"
                    .into(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<&'static str> {
        check_view(path, &lex(src)).into_iter().map(|v| v.rule).collect()
    }

    /// Rule 7's findings over in-memory `(path, source)` fixtures.
    fn unused(files: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        check_files(&files)
            .into_iter()
            .filter(|v| v.rule == "unused-pub")
            .map(|v| format!("{}:{}", v.path, v.line))
            .collect()
    }

    #[test]
    fn clean_file_passes() {
        let src = "use crate::sync::atomic::AtomicU64;\nfn f() -> u32 { 1 }\n";
        assert!(rules("crates/nic/src/port.rs", src).is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist_flagged() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(rules("crates/mq/src/chan.rs", src), ["unsafe-allowlist"]);
        // Same code in an allowlisted file only wants a SAFETY comment.
        assert_eq!(rules("crates/nic/src/ring.rs", src), ["safety-comment"]);
    }

    #[test]
    fn safety_comment_satisfies_allowlisted_unsafe() {
        let src = "// SAFETY: p is valid for reads by contract.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(rules("crates/nic/src/ring.rs", src).is_empty());
        let inline = "fn f(p: *const u8) -> u8 { unsafe { *p } } // SAFETY: contract\n";
        assert!(rules("crates/nic/src/queue.rs", inline).is_empty());
    }

    #[test]
    fn blank_line_detaches_safety_comment() {
        let src = "// SAFETY: stale justification.\n\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(rules("crates/nic/src/ring.rs", src), ["safety-comment"]);
    }

    #[test]
    fn unsafe_in_comments_and_strings_ignored() {
        let src = "//! This module avoids unsafe code.\nconst HINT: &str = \"unsafe\";\n/* unsafe */\n";
        assert!(rules("crates/flow/src/table.rs", src).is_empty());
    }

    #[test]
    fn seqcst_flagged_except_in_loom() {
        let src = "fn f(x: &std::sync::atomic::AtomicU32) { x.load(core::sync::atomic::Ordering::SeqCst); }\n";
        assert_eq!(
            rules("crates/tsdb/src/store.rs", src),
            ["seqcst-ban"]
        );
        assert!(rules("crates/loom/src/lib.rs", src).is_empty());
    }

    #[test]
    fn relaxed_head_tail_needs_annotation() {
        let bad = "let h = self.head.load(Ordering::Relaxed);\n";
        assert_eq!(rules("crates/nic/src/ring.rs", bad), ["relaxed-head-tail"]);
        let ok = "// Own counter. lint: relaxed-ok\nlet h = self.head.load(Ordering::Relaxed);\n";
        assert!(rules("crates/nic/src/ring.rs", ok).is_empty());
        let inline = "let h = self.head.load(Ordering::Relaxed); // lint: relaxed-ok\n";
        assert!(rules("crates/nic/src/ring.rs", inline).is_empty());
    }

    #[test]
    fn sleep_flagged_only_on_hot_path() {
        let src = "fn idle() { std::thread::sleep(d); }\n";
        assert_eq!(rules("crates/nic/src/lcore.rs", src), ["sleep-ban"]);
        assert_eq!(rules("crates/pipeline/src/engine.rs", src), ["sleep-ban"]);
        assert!(rules("crates/mq/src/tcp.rs", src).is_empty());
    }

    #[test]
    fn raw_atomic_flagged_in_shimmed_crates_only() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        assert_eq!(
            rules("crates/nic/src/clock.rs", src),
            ["raw-atomic-import"]
        );
        assert_eq!(rules("crates/mq/src/chan.rs", src), ["raw-atomic-import"]);
        // The shim itself and unshimmed crates are exempt.
        assert!(rules("crates/nic/src/sync.rs", src).is_empty());
        assert!(rules("crates/tsdb/src/store.rs", src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt_from_style_rules() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n    fn t() { std::thread::sleep(d); }\n}\n";
        assert!(rules("crates/nic/src/lcore.rs", src).is_empty());
        // …but not from the unsafe allowlist (rule 1 is structural).
        let with_unsafe = "#[cfg(test)]\nmod tests {\n    fn t(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
        assert_eq!(
            rules("crates/mq/src/chan.rs", with_unsafe),
            ["unsafe-allowlist"]
        );
    }

    #[test]
    fn integration_test_files_exempt_from_style_rules() {
        let src = "use std::sync::atomic::AtomicU64;\nfn f() { std::thread::sleep(d); }\n";
        assert!(rules("crates/nic/tests/prop_nic.rs", src).is_empty());
    }

    #[test]
    fn lexer_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nconst R: &str = r#\"unsafe SeqCst thread::sleep\"#;\nconst C: char = '\\'';\n";
        assert!(rules("crates/nic/src/port.rs", src).is_empty());
    }

    #[test]
    fn unnamed_pub_fn_flagged() {
        let lib = "pub fn probe_unused() {}\npub(crate) fn inner() {}\nfn private() {}\n";
        assert_eq!(unused(&[("crates/flow/src/lib.rs", lib)]), ["crates/flow/src/lib.rs:1"]);
        // Its own crate's callers and unit tests do not count.
        let caller = "fn f() { crate::probe_unused(); }\n#[cfg(test)]\nmod tests {\n    fn t() { super::probe_unused(); }\n}\n";
        assert_eq!(
            unused(&[("crates/flow/src/lib.rs", lib), ("crates/flow/src/key.rs", caller)]),
            ["crates/flow/src/lib.rs:1"]
        );
    }

    #[test]
    fn pub_fn_named_only_in_comments_or_strings_flagged() {
        let lib = "pub const fn probe_unused() {}\n";
        let user = "// probe_unused\nconst S: &str = \"probe_unused\";\n/* probe_unused */\n";
        assert_eq!(
            unused(&[("crates/flow/src/lib.rs", lib), ("tests/end_to_end.rs", user)]),
            ["crates/flow/src/lib.rs:1"]
        );
    }

    #[test]
    fn pub_fn_named_from_outside_its_src_passes() {
        let lib = "pub fn probe_used() {}\n";
        let call = "fn main() { ruru_flow::probe_used(); }\n";
        for user in [
            "crates/flow/tests/prop_table.rs",
            "crates/flow/benches/b.rs",
            "crates/pipeline/src/engine.rs",
            "crates/pipeline/src/bin/ruru-sim.rs",
            "src/lib.rs",
            "tests/end_to_end.rs",
            "examples/quickstart.rs",
            "perfbench/src/main.rs",
        ] {
            assert!(
                unused(&[("crates/flow/src/lib.rs", lib), (user, call)]).is_empty(),
                "{user}"
            );
        }
        // A binary inside the crate is a user of its library too.
        assert!(unused(&[
            ("crates/pipeline/src/lib.rs", lib),
            ("crates/pipeline/src/bin/ruru-sim.rs", call),
        ])
        .is_empty());
    }

    #[test]
    fn allowlisted_pub_fn_passes() {
        for (path, name, reason) in UNUSED_PUB_OK {
            assert!(!reason.is_empty());
            let src = format!("impl T {{\n    pub fn {name}(&mut self) {{}}\n}}\n");
            assert!(unused(&[(path, &src)]).is_empty(), "{path} {name}");
            // The entry covers that file only.
            assert_eq!(unused(&[("crates/wire/src/lib.rs", &src)]).len(), 1);
            // Once something outside names the fn, the entry is stale.
            let call = format!("fn main() {{ t.{name}(); }}\n");
            assert_eq!(
                unused(&[(path, &src), ("examples/demo.rs", &call)]),
                [format!("{path}:1")]
            );
        }
    }

    #[test]
    fn lint_dir_reads_users_outside_crates() {
        let root = std::env::temp_dir().join(format!("xtask-lint-{}", std::process::id()));
        let write = |rel: &str, src: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, src).unwrap();
        };
        write("crates/flow/src/lib.rs", "pub fn from_example() {}\npub fn from_perfbench() {}\n");
        write("examples/demo.rs", "fn main() { ruru_flow::from_example(); }\n");
        let (files, violations) = lint_dir(&root).unwrap();
        assert_eq!(files, 2);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].message.split('`').nth(1), Some("pub fn from_perfbench"));
        write("perfbench/src/main.rs", "fn main() { ruru_flow::from_perfbench(); }\n");
        assert!(lint_dir(&root).unwrap().1.is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
