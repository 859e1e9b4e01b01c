#!/usr/bin/env python3
"""Compare two builds of the end-to-end benchmark in alternated pairs.

Usage (from the repository root):

    scripts/perfbench_pairs.py --parent BIN --change BIN --workload W \\
        [--seeds 1,2,3,4,5,6] [--seconds 20] [--threads] [--json FILE]

BIN is a prebuilt `ruru-perfbench` binary. For each seed it runs both
builds once, untraced (`--trace 0`), one after the other: parent first on
the first seed, change first on the second, and so on, so a drift of the
host over the measurement falls on both sides alike. It then prints, per
metric, both medians, both interquartile ranges (as a share of the
median), the median of the per-seed ratios change/parent, and in how many
pairs the change was better. The metrics are the four end-to-end ones from
the JSON line (`setup_s`, `pkts_per_s`, `peak_rss_mb`, `cpu_ns_per_pkt`)
and, from the human-readable account on standard error, the frontend
delay percentiles, the drop ratio and every `name=integer` registry
counter it prints. Every run's `correct` flag and failed count are
checked, and a run that exits non-zero is reported.

With --threads each run is wrapped in `scripts/thread_cpu.py`, and the
per-thread CPU seconds and voluntary context switches are compared the
same way. With --json FILE every run's numbers are written out too.

Build each binary into its own target directory; a shared one makes cargo
reuse the other checkout's artifacts. A perfbench build rewrites
`perfbench/Cargo.lock`, so build the parent in a worktree of its own:

    git worktree add ../ruru-parent <parent-commit>
    CARGO_TARGET_DIR=$PWD/../parent-target cargo build --release --offline \\
        --manifest-path ../ruru-parent/perfbench/Cargo.toml
    git worktree remove --force ../ruru-parent

and after building the change in this checkout
(`CARGO_TARGET_DIR=$PWD/../change-target cargo build --release --offline
--manifest-path perfbench/Cargo.toml`), restore the lock with
`git checkout perfbench/Cargo.lock`. The binaries are then
`../parent-target/release/ruru-perfbench` and
`../change-target/release/ruru-perfbench`.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_CPU = os.path.join(ROOT, "scripts", "thread_cpu.py")

# Metrics that are better when higher; every other one is better lower.
HIGHER = {"pkts_per_s", "frontend.samples"}


def directions():
    """`better` of each end-to-end metric, from BENCHMARK.json if present."""
    better = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            for m in json.load(f).get("end_to_end", []):
                better[m["name"]] = m["better"]
    except (OSError, ValueError, KeyError):
        pass
    return better


def parse_stderr(text):
    """The numbers of the human-readable account worth comparing."""
    out = {}
    m = re.search(r"frontend delay p50 ([\d.]+) ms p95 ([\d.]+) ms p99 ([\d.]+) ms "
                  r"over (\d+) handshakes", text)
    if m:
        out["frontend.delay_p50_ms"] = float(m.group(1))
        out["frontend.delay_p95_ms"] = float(m.group(2))
        out["frontend.delay_p99_ms"] = float(m.group(3))
        out["frontend.samples"] = float(m.group(4))
    m = re.search(r"drop ratio ([\d.eE+-]+)", text)
    if m:
        out["nic.drop_ratio"] = float(m.group(1))
    for line in text.splitlines():
        if line.startswith("  "):
            for name, value in re.findall(r"\b([a-z][a-z0-9_]*)=(\d+)\b", line):
                out[name] = float(value)
    return out


def run_once(binary, args, seed, threads):
    """One benchmark run: its metrics, its thread rows, and what went wrong."""
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    rows_file = None
    if threads:
        fd, rows_file = tempfile.mkstemp(prefix="perfbench_pairs_", suffix=".json")
        os.close(fd)
        cmd = [sys.executable, THREAD_CPU, "--json", rows_file, "--"] + cmd
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    metrics = {}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if not result.get("correct", False):
            problems.append("not correct")
        if result.get("failed", 0):
            problems.append(f"{result['failed']} failed")
    except (IndexError, ValueError, KeyError):
        problems.append("no JSON result line")
    metrics.update(parse_stderr(proc.stderr))
    if metrics.get("nic.drop_ratio", 0.0) > 0.0:
        problems.append(f"drop ratio {metrics['nic.drop_ratio']}")
    rows = {}
    if rows_file:
        try:
            with open(rows_file) as f:
                rows = {r["thread"]: r for r in json.load(f)}
        except (OSError, ValueError):
            problems.append("no thread rows")
        os.unlink(rows_file)
    return {"seed": seed, "metrics": metrics, "threads": rows, "problems": problems,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:] if problems else []}


def iqr_share(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compare(name, parent, change, lower_better):
    """One table row: medians, spreads, pair ratios and wins."""
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    if not pairs:
        return None
    ps = [p for p, _ in pairs]
    cs = [c for _, c in pairs]
    ratios = [c / p for p, c in pairs if p]
    wins = sum(1 for p, c in pairs if (c < p if lower_better else c > p))
    return (f"{name:<28} {statistics.median(ps):>12.4g} {iqr_share(ps):>6.1%} "
            f"{statistics.median(cs):>12.4g} {iqr_share(cs):>6.1%} "
            f"{statistics.median(ratios) if ratios else float('nan'):>7.3f} "
            f"{wins:>3} of {len(pairs)}")


def header(first):
    return (f"{first:<28} {'parent':>12} {'iqr':>6} {'change':>12} {'iqr':>6} "
            f"{'ratio':>7} {'better':>9}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent's ruru-perfbench")
    parser.add_argument("--change", required=True, help="the change's ruru-perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6",
                        help="comma-separated seeds, one pair each (default 1..6)")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--threads", action="store_true",
                        help="wrap each run in scripts/thread_cpu.py")
    parser.add_argument("--json", help="also write every run to this file")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    binaries = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            run = run_once(binaries[side], args, seed, args.threads)
            runs[side].append(run)
            m = run["metrics"]
            note = "; ".join(run["problems"]) or "ok"
            print(f"seed {seed} {side:<6} pkts/s {m.get('pkts_per_s', float('nan')):.0f} "
                  f"cpu ns/pkt {m.get('cpu_ns_per_pkt', float('nan')):.1f} "
                  f"p99 {m.get('frontend.delay_p99_ms', float('nan')):.3f} ms: {note}",
                  file=sys.stderr, flush=True)
            for line in run["stderr_tail"]:
                print(f"    {line}", file=sys.stderr)

    better = directions()
    names = []
    for side in runs.values():
        for run in side:
            names.extend(k for k in run["metrics"] if k not in names)
    first = [n for n in better if n in names]
    names = first + sorted(n for n in names if n not in first)
    print(f"{args.workload}: {len(seeds)} alternated pairs of {args.seconds:g} s runs "
          f"(ratio = median of change/parent per pair)")
    print(header("metric"))
    zero = []
    for name in names:
        parent = [r["metrics"].get(name) for r in runs["parent"]]
        change = [r["metrics"].get(name) for r in runs["change"]]
        if not any(parent + change):
            zero.append(name)
            continue
        lower = better.get(name, "higher" if name in HIGHER else "lower") == "lower"
        row = compare(name, parent, change, lower)
        if row:
            print(row)
    if zero:
        print(f"zero in every run: {' '.join(zero)}")
    if args.threads:
        threads = []
        for side in runs.values():
            for run in side:
                threads.extend(t for t in run["threads"] if t not in threads)
        for field, title in (("cpu_s", "thread CPU-s"), ("voluntary", "voluntary switches")):
            print(header(title))
            for t in threads:
                row = compare(t, [r["threads"].get(t, {}).get(field) for r in runs["parent"]],
                              [r["threads"].get(t, {}).get(field) for r in runs["change"]],
                              True)
                if row:
                    print(row)
    bad = [(side, r["seed"], r["problems"]) for side, rs in runs.items() for r in rs
           if r["problems"]]
    for side, seed, problems in bad:
        print(f"PROBLEM: {side} seed {seed}: {'; '.join(problems)}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds, "seeds": seeds,
                       "runs": runs}, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
