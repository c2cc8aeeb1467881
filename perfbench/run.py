#!/usr/bin/env python3
"""The locktune benchmark: builds the benchmark binary, runs workloads, checks
outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace T]
    python3 perfbench/run.py --self-test

Run it from the repository root (any directory works; paths are resolved
from this file). Each workload runs in its own process under a wall-clock
deadline. The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". README.md in this directory
describes the workloads, the metrics and the output check.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
BINARY = BUILD_DIR / "locktune_perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
REFERENCES = BENCH_DIR / "references.json"

# The benchmark's workloads (BENCHMARK.json), run by --workload all.
WORKLOADS = ["fig9_ramp", "escalation_storm"]
# Outcome references exist for this seed only (ScenarioOptions' default).
DEFAULT_SEED = 42
DEFAULT_SECONDS = 50
# A workload process that has not finished by then is killed and the run
# reported as failed, so a hung simulation never hangs the benchmark.
RUN_DEADLINE_S = 150

# The bounded end-to-end metrics of BENCHMARK.json: name -> unit; the order
# is the report order.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "lock_requests_per_s": "1/s",
    "tick_p50_ms": "ms",
    "tick_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
# End-to-end metrics the report prints but BENCHMARK.json does not bound
# (README.md says why): name -> unit.
REPORTED_ONLY = {
    "failed_txn_ratio": "ratio",
    "setup_wall_s": "s",
    "run_wall_s": "s",
    "tick_p50_wall_ms": "ms",
    "host_speed": "ratio",
}
PER_LAYER_UNITS = {
    "workload.sweep_ms": "ms",
    "workload.app_ticks": "count",
    "workload.runnable_p50": "count",
    "workload.draw_ms": "ms",
    "workload.abort_ms": "ms",
    "workload.failed_txn_ratio": "ratio",
    "lock.request_ns": "ns",
    "lock.requests": "count",
    "lock.grant_ratio": "ratio",
    "lock.waits": "count",
    "lock.escalations": "count",
    "lock.escalation_success_ratio": "ratio",
    "lock.deadlock_victims": "count",
    "lock.oom_failures": "count",
    "lock.deadlock_sweep_ms": "ms",
    "lock.deadlock_sweep_calls": "count",
    "engine.tick_ms": "ms",
    "core.tuning_passes": "count",
    "core.resize_passes": "count",
    "core.tuning_pass_us": "us",
    "memory.sync_growth_blocks": "count",
    "memory.lock_mb_peak": "MB",
    "bench.tick_self_ms": "ms",
    "bench.trace_overhead": "ratio",
}


class BenchError(Exception):
    """A condition under which no result may be printed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def paranoid_env():
    return os.environ.get("LOCKTUNE_PARANOID", "") in ("1", "on", "ON")


def build():
    """Configures (once) and builds the benchmark binary; returns the build
    settings."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no locktune sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    cache_file = BUILD_DIR / "CMakeCache.txt"
    if cache_file.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
            not in cache_file.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache_file.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "locktune_perfbench", "-j", jobs])
    # Concurrent invocations in one checkout share the build directory.
    with open(BUILD_DIR.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                raise BenchError("build failed: " + " ".join(cmd))
    cache = cache_file.read_text()

    def cached(key):
        m = re.search(rf"^{key}:[A-Z]+=(.*)$", cache, re.M)
        return m.group(1) if m else ""

    return {
        "build_type": cached("CMAKE_BUILD_TYPE"),
        "compiler_path": cached("CMAKE_CXX_COMPILER"),
    }


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not be
    a git repository, so this names the code that was measured)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py",
                                                  ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def host_fingerprint(settings):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "machine": platform.machine(),
        "compiler": settings["compiler_path"],
        "build_type": settings["build_type"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def load_references():
    return json.loads(REFERENCES.read_text())


def check(result, references):
    """The output check; returns a list of failures (empty = pass)."""
    failures = []
    untraced, traced = result["untraced"], result["traced"]
    for kind, runs in (("untraced", untraced), ("traced", traced)):
        for i, run in enumerate(runs):
            if run["invariants"] != "ok":
                failures.append(f"{kind} repetition {i}: invariants: "
                                f"{run['invariants']}")
    # Each repetition runs its own seed; a traced repetition must reproduce
    # the untraced one it is paired with.
    for plain, twin in zip(untraced, traced):
        if twin["fingerprint"] != plain["fingerprint"]:
            failures.append(f"seed {plain['seed']}: traced outcome "
                            f"{twin['fingerprint']} != untraced "
                            f"{plain['fingerprint']}")
    first = untraced[0]
    if first["seed"] == references["seed"]:
        want = references["fingerprints"].get(result["workload"])
        if want is None:
            failures.append("no reference outcome for this workload")
        elif first["fingerprint"] != want:
            failures.append(f"outcome {first['fingerprint']} != reference "
                            f"{want}")
    return failures


def run_workload(workload, seed, seconds, trace, deadline_s=RUN_DEADLINE_S):
    """Runs one workload process; returns (result or None, failure list)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(SPANS_DIR / f"{workload}-seed{seed}.csv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, [f"workload {workload}: killed after the "
                      f"{deadline_s:g} s deadline"]
    if proc.returncode != 0:
        return None, [f"workload {workload}: locktune_perfbench exited with code "
                      f"{proc.returncode}"]
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), []
    except (IndexError, json.JSONDecodeError):
        return None, [f"workload {workload}: locktune_perfbench printed no "
                      "result"]


def report(workload, result, failures, host, trace):
    """Prints the human-readable block and returns the contract JSON."""
    units = END_TO_END if trace == 0 else PER_LAYER_UNITS
    ok = not failures
    print(f"== {workload} (seed {result['seed'] if result else '?'}, "
          f"trace {trace})")
    print("host: " + json.dumps(host, sort_keys=True))
    if result is None:
        print(f"output check: FAIL: {'; '.join(failures)}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(f"build: {json.dumps(result['build'], sort_keys=True)}")
    print(f"repetitions: {result['reps']}  ticks: {result['ticks']}  "
          f"tick samples: {result['tick_samples']}")
    print(f"outcome: {result['untraced'][0]['fingerprint']}")
    metrics = {}
    for name in units:
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    if trace == 0:
        for name, unit in REPORTED_ONLY.items():
            value = result["metrics"][name]
            if name == "failed_txn_ratio" and not ok:
                value = 1.0  # a failed check fails every transaction
            print(f"  {name:36s} {value:>16.6g} {unit} (not bounded)")
    print("output check: " + ("PASS" if ok else "FAIL: " + "; ".join(failures)))
    ticks = result["ticks"]
    return {"correct": ok, "attempted": ticks, "failed": 0 if ok else ticks,
            "metrics": metrics}


def one(workload, seed, seconds, trace, host, references):
    result, failures = run_workload(workload, seed, seconds, trace)
    if result is not None:
        failures = check(result, references)
    return report(workload, result, failures, host, trace)


def self_test(references):
    """Shows that the output check fails on a wrong reference and that the
    deadline turns a run that overstays into a reported failure."""
    seed = references["seed"]
    result, failures = run_workload("escalation_storm", seed, 1, 0)
    if result is None:
        log("; ".join(failures))
        return 1
    good = check(result, references)
    wrong = json.loads(json.dumps(references))
    fp = wrong["fingerprints"]["escalation_storm"]
    wrong["fingerprints"]["escalation_storm"] = re.sub(
        r"commits=(\d+)", lambda m: f"commits={int(m.group(1)) + 1}", fp)
    bad = check(result, wrong)
    _, late = run_workload("fig9_ramp", seed, 1, 0, deadline_s=0.5)
    cases = [("true reference passes", not good),
             ("wrong reference fails", bool(bad)),
             ("deadline kills and fails the run",
              any("deadline" in f for f in late))]
    for name, passed in cases:
        print(f"self-test: {name}: {'ok' if passed else 'FAILED'}")
    if good:
        print("  " + "; ".join(good))
    ok = all(passed for _, passed in cases)
    print(json.dumps({"correct": ok, "attempted": len(cases),
                      "failed": sum(not p for _, p in cases), "metrics": {}}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload or --self-test is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        if paranoid_env():
            raise BenchError("refusing to measure with LOCKTUNE_PARANOID set "
                             "(docs/PERFORMANCE.md section 1)")
        host = host_fingerprint(build())
        references = load_references()
    except BenchError as e:
        log(str(e))
        return 2
    if args.self_test:
        return self_test(references)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = [one(w, args.seed, args.seconds, args.trace, host, references)
               for w in workloads]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{name}": m for w, r in zip(workloads, results)
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
