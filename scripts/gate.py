#!/usr/bin/env python3
"""Benchmark artifact gates, shared by scripts/bench.sh and CI.

Subcommands:
  flowtable PATH        gate BENCH_flowtable.json: FlowTable lookup/insert
                        must beat the baseline store by >= 2x, steady-state
                        allocation count must be 0.
  tsdb PATH             gate BENCH_tsdb.json: the day-scale workload must
                        hold >= 10M points, sealed storage must cost <= 4.0
                        bytes/point and account for every point, a sealed
                        seven-field latency row must cost <= 28 bytes, and
                        the measured 2-worker query speedup must be >= 1.2x,
                        on a host with >= 2 cores.
  inflow PATH           gate BENCH_inflow.json: the in-flow tracker must
                        sustain >= 2M packets/s, beat the pping baseline by
                        >= 2x, and the steady-state allocation audit must
                        be 0. Rejects smoke-sized artifacts.

Every check prints what it compared; exit 1 on the first unmet floor.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"GATE FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{path} does not exist — run the reporter first")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def gate_flowtable(path):
    r = load(path)
    ok = True
    for name, floor in [
        ("lookup_vs_baseline", 2.0),
        ("insert_vs_baseline", 2.0),
    ]:
        got = r["speedup"][name]
        print(f"  {name}: {got:.2f}x (floor {floor}x)")
        ok &= got >= floor
    allocs = r["steady_state_allocations"]
    print(f"  steady_state_allocations: {allocs} (must be 0)")
    ok &= allocs == 0
    return ok


# Measured 2-worker query speedup floor, set below the slowest of the
# recorded full runs on a 2-CPU host (EXPERIMENTS.md E11).
TSDB_SPEEDUP_FLOOR = 1.2
# Sealed bytes per seven-field latency row: one shared timestamp stream
# (~3 B at irregular arrivals) plus three varying (~21 B) and four
# constant (~0.5 B) value columns. Per-field timestamp streams cost ~44 B.
TSDB_LATENCY_ROW_CEILING = 28.0


def gate_tsdb(path):
    r = load(path)
    ok = True
    points = r["workload"]["points"]
    print(f"  workload.points: {points} (floor 10000000)")
    if points < 10_000_000:
        print(f"  {path} looks like a smoke artifact — the gate needs the "
              "full day-scale run", file=sys.stderr)
        ok = False
    bpp = r["storage"]["bytes_per_point"]
    print(f"  storage.bytes_per_point: {bpp:.3f} (ceiling 4.0, raw 16)")
    ok &= bpp <= 4.0
    row = r["storage"]["latency_row_bytes"]
    print(f"  storage.latency_row_bytes: {row:.3f} (ceiling "
          f"{TSDB_LATENCY_ROW_CEILING}, seven fields)")
    ok &= row <= TSDB_LATENCY_ROW_CEILING
    sealed = r["storage"]["sealed_points"] + r["storage"]["active_points"]
    print(f"  storage accounting: {sealed} sealed+active (must equal points)")
    ok &= sealed == points
    cores = r["host_cores"]
    print(f"  host_cores: {cores} (floor 2)")
    if cores < 2:
        print(f"  {path} was made on a 1-core host, which cannot show a "
              "parallel speedup", file=sys.stderr)
        ok = False
    parallel = r["query"]["parallel"]
    speedup = parallel["speedup_measured"]
    workers = parallel["workers"]
    print(f"  query.parallel.speedup_measured: {speedup:.2f}x at {workers} "
          f"workers (floor {TSDB_SPEEDUP_FLOOR}x)")
    ok &= workers == 2 and speedup >= TSDB_SPEEDUP_FLOOR
    return ok


def gate_inflow(path):
    r = load(path)
    ok = True
    packets = r["workload"]["packets"]
    print(f"  workload.packets: {packets} (floor 20000)")
    if packets < 20_000:
        print(f"  {path} looks like a smoke artifact — the gate needs the "
              "full workload", file=sys.stderr)
        ok = False
    samples = r["workload"]["samples"]
    print(f"  workload.samples: {samples} (must be > 0)")
    ok &= samples > 0
    pps = r["tracker_packets_per_sec"]
    print(f"  tracker_packets_per_sec: {pps:.0f} (floor 2000000)")
    ok &= pps >= 2_000_000
    speedup = r["speedup"]["inflow_vs_pping"]
    print(f"  inflow_vs_pping: {speedup:.2f}x (floor 2.0x)")
    ok &= speedup >= 2.0
    allocs = r["steady_state_allocations"]
    print(f"  steady_state_allocations: {allocs} (must be 0)")
    ok &= allocs == 0
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("flowtable")
    p.add_argument("path")
    p = sub.add_parser("tsdb")
    p.add_argument("path")
    p = sub.add_parser("inflow")
    p.add_argument("path")
    args = ap.parse_args()

    if args.cmd == "flowtable":
        ok = gate_flowtable(args.path)
    elif args.cmd == "tsdb":
        ok = gate_tsdb(args.path)
    else:
        ok = gate_inflow(args.path)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
