//! `cargo xtask` — repo automation, dependency-free by design.
//!
//! Subcommands:
//!
//! - `lint` — the six concurrency invariants rustc cannot enforce
//!   (unsafe allowlist, SAFETY comments, SeqCst ban, relaxed-ok audit,
//!   sleep ban, sync-shim imports), and rule 7: every library `pub fn` is
//!   named outside its crate. See [`lint`] and DESIGN.md §9.
//! - `panic-check [--root DIR] [--json PATH]` — dataplane panic-freedom
//!   analyzer: call-graph reachability from the RX/parse/flow/codec/mq
//!   entry points to classified panic sites, with `panic-ok` annotation
//!   auditing and call-chain witnesses. See [`panic_check`] and
//!   DESIGN.md §10.
//! - `hotpath-check [--root DIR] [--json PATH]` — hot-path hygiene
//!   analyzer: allocation reachability from the steady-state dataplane
//!   roots and lock discipline (guards across blocking calls /
//!   allocation, inter-procedural lock-order cycles), with `alloc-ok` /
//!   `lock-ok` auditing. See [`hotpath_check`] and DESIGN.md §14.
//! - `account-check [--root DIR] [--json PATH]` — loss-accounting
//!   analyzer: every discard site (continue/break in record loops, `?` /
//!   early return, dropped match bindings, `let _ =` on sends) reachable
//!   from the dataplane roots must be paired with a reject/telemetry
//!   counter increment or carry an audited `account-ok` annotation, every
//!   declared metric must have a write site, and every term of the
//!   conservation manifest must be live. See [`account_check`] and
//!   DESIGN.md §15.
//! - `check-all [--root DIR] [--json PATH]` — run lint + panic-check +
//!   hotpath-check + account-check with per-step timing; the one entry
//!   point CI and `scripts/check.sh` invoke. With `--json`, writes every
//!   analyzer's findings into one combined report (`-` for stdout).
//!
//! All `--json` reports share one shape: `{"analyzers": [{"analyzer",
//! "findings": [{rule, path, line, func, snippet, witness}], "audited"}]}`.

// The clippy.toml disallowed-methods list bans hot-path footguns
// (wall-clock reads, per-record allocation); xtask is offline repo
// tooling where those methods are the idiomatic choice.
#![allow(clippy::disallowed_methods)]

mod account_check;
mod callgraph;
mod check_all;
mod hotpath_check;
mod lexer;
mod lint;
mod panic_check;
mod suppress;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::lint(&lexer::workspace_root()),
        Some("panic-check") => panic_check::run(&args[1..]),
        Some("hotpath-check") => hotpath_check::run(&args[1..]),
        Some("account-check") => account_check::run(&args[1..]),
        Some("check-all") => check_all::run(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask <lint | panic-check | hotpath-check | account-check | check-all> \
                 [--root DIR] [--json PATH]"
            );
            ExitCode::from(2)
        }
    }
}
