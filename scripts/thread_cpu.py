#!/usr/bin/env python3
"""Per-thread CPU time and voluntary context switches of a command.

Usage (from the repository root):

    scripts/thread_cpu.py [--interval S] [--json FILE] -- COMMAND [ARGS...]

Runs COMMAND and samples, read-only, /proc/<pid>/task/<tid>/{stat,status,comm}
of it and of every process it starts (the whole process tree) every
--interval seconds (default 0.1), keeping each thread's last sample, so
threads that exit before the command does still count up to their last
sample. When the command exits it prints to standard error, per thread name
(`comm`, summed over threads and processes of that name): CPU seconds (user
+ system), voluntary and involuntary context switches, and the number of
threads. With --json FILE it also writes those rows as JSON. The command's
own output passes through untouched, and its exit code is this script's.

For example, the enrichment worker's CPU in one benchmark run:

    scripts/thread_cpu.py -- python3 perfbench/run.py --workload handshake_mix \\
        --seed 1 --seconds 20 --trace 0

A thread's CPU between its last sample and its exit is not seen, so a
shorter interval reads closer. Nothing here writes under /proc.

The pipeline's own per-thread gauges (ROADMAP item 19, `thread_cpu_ns`)
are to replace this script: once the registry exports them, read them
instead.
"""

import argparse
import json
import os
import subprocess
import sys
import time

TICKS = os.sysconf("SC_CLK_TCK")


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def children(root):
    """Every live process in the tree under `root`, `root` included."""
    parent = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = read(f"/proc/{entry}/stat")
        if stat is None:
            continue
        # Fields after the parenthesised comm: state, ppid, ...
        fields = stat[stat.rfind(")") + 2:].split()
        parent[int(entry)] = int(fields[1])
    tree, frontier = {root}, [root]
    while frontier:
        pid = frontier.pop()
        for child, ppid in parent.items():
            if ppid == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    return tree


def sample(pid, threads):
    """Record the current counters of every thread of `pid` in `threads`."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for tid in tids:
        base = f"/proc/{pid}/task/{tid}"
        stat, status, comm = read(f"{base}/stat"), read(f"{base}/status"), read(f"{base}/comm")
        if stat is None or status is None or comm is None:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        # utime and stime are fields 14 and 15 of stat (1-based), that is
        # 11 and 12 after the comm.
        cpu = (int(fields[11]) + int(fields[12])) / TICKS
        switches = {}
        for line in status.splitlines():
            key, _, value = line.partition(":")
            if key in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
                switches[key] = int(value)
        threads[(pid, int(tid))] = (
            comm.strip(),
            cpu,
            switches.get("voluntary_ctxt_switches", 0),
            switches.get("nonvoluntary_ctxt_switches", 0),
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--interval", type=float, default=0.1)
    parser.add_argument("--json", help="also write the rows to this file")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    proc = subprocess.Popen(command)
    threads = {}
    while proc.poll() is None:
        for pid in children(proc.pid):
            sample(pid, threads)
        time.sleep(args.interval)

    rows = {}
    for name, cpu, vol, invol in threads.values():
        row = rows.setdefault(name, {"thread": name, "cpu_s": 0.0, "voluntary": 0,
                                     "involuntary": 0, "threads": 0})
        row["cpu_s"] += cpu
        row["voluntary"] += vol
        row["involuntary"] += invol
        row["threads"] += 1
    ordered = sorted(rows.values(), key=lambda r: -r["cpu_s"])
    total = sum(r["cpu_s"] for r in ordered)
    print(f"{'thread':<20} {'cpu_s':>8} {'voluntary':>10} {'involuntary':>12} {'n':>4}",
          file=sys.stderr)
    for r in ordered:
        print(f"{r['thread']:<20} {r['cpu_s']:>8.2f} {r['voluntary']:>10} "
              f"{r['involuntary']:>12} {r['threads']:>4}", file=sys.stderr)
    print(f"{'total':<20} {total:>8.2f}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(ordered, f, indent=1)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
