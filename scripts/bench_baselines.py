#!/usr/bin/env python3
"""Records the committed bench baselines in results/, one manifest entry each.

    scripts/bench_baselines.py [name...]     (default: every entry)

Builds the named entries' targets in one `cmake --build`, then runs each
bench with its fixed arguments. A gated entry is first checked against the
baseline it replaces, when one exists; the bench holds its own bounds (see
its header comment) and exits non-zero on a breach, as does
`ablation_adaptive --check`. Each run writes BENCH_<name>.json.new, which is
stamped with the host fingerprint and the commit (perfbench's own, so a
baseline names the machine it is comparable on) and moved into place when
the bench passed. A failed run keeps the old baseline and leaves the
stamped .new file next to it; moving it into place by hand accepts it (say,
for a first recording on a new host). The bench's stdout also goes to the
entry's text file. Exits 1 when any entry failed.
"""
import json
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import commit, fingerprint  # noqa: E402

Entry = namedtuple("Entry", "name target args json txt gated")

MANIFEST = [
    Entry("trace", "micro_plane_overhead", ["--plane=trace"],
          "BENCH_trace.json", "micro_plane_overhead_trace.txt", True),
    Entry("telemetry", "micro_plane_overhead", ["--plane=telemetry"],
          "BENCH_telemetry.json", "micro_plane_overhead_telemetry.txt", True),
    Entry("pmu", "micro_plane_overhead", ["--plane=pmu"],
          "BENCH_pmu.json", "micro_plane_overhead_pmu.txt", True),
    # Sized for 1-CPU runners and held well below saturation (2k req/s x
    # 20 us on one worker ~= 4% utilization): achieved tracks offered with
    # no rejections under the block policy.
    Entry("service", "service_load",
          ["--duration=2", "--rate=2000", "--grain=20000", "--workers=1",
           "--clients=1", "--policy=block", "--seed=3"],
          "BENCH_service.json", "service_load.txt", True),
    # 2M items x 5 interleaved samples: per-pass runtime dominates
    # scheduling noise, and host drift hits every strategy equally. Four
    # workers: on one nobody starves, and the split gate could not fail.
    Entry("adaptive", "ablation_adaptive",
          ["--items=2000000", "--samples=5", "--mode=both", "--workers=4",
           "--check", "--ratio=0.9"],
          "BENCH_adaptive.json", "ablation_adaptive.txt", False),
    Entry("steal", "micro_steal_throughput", [],
          "BENCH_steal.json", "micro_steal_throughput.txt", False),
    # The forced 2-worker / 2-domain split keeps the steal and remote
    # columns populated even on single-CPU hosts.
    Entry("steal_topology", "ablation_topology", ["--workers=2", "--domains=2"],
          "BENCH_steal_topology.json", "ablation_topology.txt", False),
]


def run_entry(entry, host, rev):
    """Runs one entry; True when the bench passed and the baseline moved."""
    out = RESULTS / entry.json
    new = RESULTS / (entry.json + ".new")
    cmd = [str(ROOT / "build" / "bench" / entry.target), *entry.args,
           f"--json={new.relative_to(ROOT)}"]
    if entry.gated and out.exists():
        cmd.append(f"--baseline={out.relative_to(ROOT)}")
    print(f"=== {entry.name}: {' '.join(cmd[1:])}", flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    (RESULTS / entry.txt).write_text(proc.stdout)
    if new.exists():
        doc = json.loads(new.read_text())
        doc["host"] = host
        doc["commit"] = rev
        new.write_text(json.dumps(doc, indent=2) + "\n")
    if proc.returncode != 0:
        print(f"{entry.name}: FAILED (exit {proc.returncode}); kept "
              f"{out.relative_to(ROOT)}, new run in {new.relative_to(ROOT)}",
              file=sys.stderr)
        return False
    os.replace(new, out)
    return True


def main(names):
    by_name = {e.name: e for e in MANIFEST}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"unknown entries {unknown}; known: {list(by_name)}", file=sys.stderr)
        return 2
    entries = [by_name[n] for n in names] if names else MANIFEST
    targets = sorted({e.target for e in entries})
    subprocess.run(["cmake", "-B", "build", "-S", "."], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", "build", "-j", "--target", *targets],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    RESULTS.mkdir(exist_ok=True)
    host, rev = fingerprint(), commit()
    failed = [e.name for e in entries if not run_entry(e, host, rev)]
    if failed:
        print(f"bench_baselines: failed: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
