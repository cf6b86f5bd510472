#!/usr/bin/env python3
"""End-to-end benchmark of the gran runtime.

Builds the runtime and the benchmark program from this checkout's sources,
runs one workload, and prints the program's report followed by a run record
(host fingerprint, parameters, sample counts) and, as the last line, the
result object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload heat-fine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 only when every output checked out; see README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("heat-fine", "heat-floor", "service-poisson")
RECORD_PREFIX = "perfbench-record "
# Margin over --seconds for set-up, reference solves and teardown.
RUN_MARGIN_S = 120


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no runtime sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build output goes to stderr so stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")


def clean_env():
    # The end-to-end runs keep every observability plane off (GRAN_TRACE,
    # GRAN_PMU, GRAN_METRICS, ...) and every runtime knob at its default.
    return {k: v for k, v in os.environ.items() if not k.startswith("GRAN_")}


def read(path, default=""):
    try:
        return Path(path).read_text()
    except OSError:
        return default


def source_digest():
    """sha256 over the runtime and benchmark sources (the checkout may not be a git tree)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return (r.stdout.strip() or None) if r.returncode == 0 else None


def fingerprint():
    cpu_model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), "unknown")
    cpuset = next((line.split(":", 1)[1].strip() for line in read("/proc/self/status").splitlines()
                   if line.startswith("Cpus_allowed_list")), "unknown")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cpuset": cpuset,
        "kernel": platform.release(),
        "perf_event_paranoid": read("/proc/sys/kernel/perf_event_paranoid").strip() or None,
        "build_type": BUILD_TYPE,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def run(args, workload):
    """Runs one workload; True when every check passed."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=clean_env(),
                              timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out (hung run)", 3)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark program exited {proc.returncode} without a result", 3)
    print("\n".join(lines[:-1]))
    result = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": fingerprint(), "detail": out["detail"], **result}
    print(RECORD_PREFIX + json.dumps(record, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_frac {failed / attempted if attempted else 0:.6g} ({failed} of {attempted} checks)")
    print(json.dumps(result))
    return proc.returncode == 0 and result["correct"]


def selftest():
    """Unit tests of the benchmark's own code, then injected failures end to end."""
    build(["perfbench", "perfbench_tests"])
    ok = subprocess.run([str(BUILD / "perfbench_tests")]).returncode == 0
    ok &= subprocess.run([sys.executable, "-m", "unittest", "-q", "test_compare"],
                         cwd=HERE).returncode == 0
    for workload, inject in (("heat-fine", "grid"), ("service-poisson", "lost"),
                             ("service-poisson", "dup")):
        r = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                            "--seed", "1", "--seconds", "1", "--trace", "0", "--inject", inject],
                           capture_output=True, text=True)
        caught = r.returncode == 1 and '"correct": false' in r.stdout.splitlines()[-1]
        print(f"injected {inject} on {workload}: {'caught' if caught else 'MISSED'}")
        ok &= caught
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("grid", "lost", "dup"),
                    help="perturb one output so the checks must fail")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    build(["perfbench"])
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run(args, w) for w in workloads]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
