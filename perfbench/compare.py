#!/usr/bin/env python3
"""Summarise and gate sets of benchmark runs.

Each input file holds the stdout of one or more `run.py --trace 0` runs;
only their run-record lines are read.

    python3 perfbench/compare.py NEW.log            # medians and spreads
    python3 perfbench/compare.py BASE.log NEW.log   # gate NEW against BASE

The spread of a metric is (Q3 - Q1) / median over a workload's runs, with
the quartiles of statistics.quantiles(n=4). The gate fails (exit 1) when a
metric's NEW median is worse than the BASE median by more than the bound in
BENCHMARK.json. Runs from different hosts (nproc, CPU model, cpuset,
kernel, build type) are never compared (exit 2), and service runs whose
generator fell behind are left out.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_PREFIX = "perfbench-record "
HOST_KEYS = ("nproc", "cpu_model", "cpuset", "kernel", "build_type")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_records(path):
    return parse_records(Path(path).read_text().splitlines())


def parse_records(lines):
    """Valid end-to-end run records among `lines` of run.py output."""
    records = []
    for line in lines:
        if line.startswith(RECORD_PREFIX):
            r = json.loads(line[len(RECORD_PREFIX):])
            if r.get("trace") == 0 and r.get("detail", {}).get("valid", "true") == "true":
                records.append(r)
    return records


def host_key(record):
    return tuple(record["host"].get(k) for k in HOST_KEYS)


def summarize(records, spec):
    """{workload: {metric: {"median", "spread", "runs"}}} over end-to-end metrics."""
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        out[workload] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not values:
                continue
            med = statistics.median(values)
            spread = None
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
            out[workload][m["name"]] = {"median": med, "spread": spread, "runs": len(values)}
    return out


def worsening(base, new, better):
    """Share by which `new` is worse than `base` (negative when better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def gate(base_records, new_records, spec):
    """List of (workload, metric, base median, new median, worsening, bound) beyond bound."""
    hosts = {host_key(r) for r in base_records + new_records}
    if len(hosts) > 1:
        raise ValueError(f"runs come from {len(hosts)} different hosts: {sorted(hosts)}")
    base, new = summarize(base_records, spec), summarize(new_records, spec)
    failures = []
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            b, n = base[workload].get(m["name"]), new[workload].get(m["name"])
            if b is None or n is None:
                continue
            w = worsening(b["median"], n["median"], m["better"])
            if w > m["bound"]:
                failures.append((workload, m["name"], b["median"], n["median"], w, m["bound"]))
    return failures


def print_summary(summary, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, metrics in summary.items():
        print(workload)
        for name, s in metrics.items():
            spread = s["spread"]
            flag = ""
            if spread is not None and spread > bounds[name]:
                flag, steady = "  SPREAD ABOVE BOUND", False
            text = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {name:18s} median {s['median']:<14.6g} spread {text:8s} "
                  f"bound {bounds[name]}  runs {s['runs']}{flag}")
    return steady


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    if len(argv) == 2:
        return 0 if print_summary(summarize(load_records(argv[1]), spec), spec) else 1
    base, new = load_records(argv[1]), load_records(argv[2])
    try:
        failures = gate(base, new, spec)
    except ValueError as e:
        print(f"refusing to compare: {e}", file=sys.stderr)
        return 2
    print_summary(summarize(new, spec), spec)
    for workload, name, b, n, w, bound in failures:
        print(f"REGRESSION {workload} {name}: {b:.6g} -> {n:.6g} ({w:+.1%} worse, bound {bound:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
