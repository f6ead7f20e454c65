#!/usr/bin/env python3
"""The specmine end-to-end benchmark (see specbench/README.md).

One run:
    python3 specbench/run.py --workload batch-dense --seed 1 --trace 0

builds the library, the specmined server and the specbench binary from
source into .bench_build/, generates the workload's inputs from the seed,
runs it for BENCHMARK.json's run_seconds (a --seconds argument must equal
it), checks its outputs, saves the full result (with an environment
record) under .bench_results/<workload>/, prints a readable summary, and
ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with
--trace 1 its per-layer metrics, from a traced run.

Compare two sets of result files (e.g. .bench_results/ saved at two commits):
    python3 specbench/run.py compare BASE_DIR CHANGED_DIR
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
RUN_DEADLINE_S = 170  # The whole run, build excluded, must end by 180 s.


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Build.

def build():
    """Configures (once) and builds the benchmark binary and the server."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no specmine sources under {ROOT}")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "specbench",
                  "specmined", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return BUILD_DIR / "specbench", BUILD_DIR / "specmine" / "specmined"


# ---------------------------------------------------------------------------
# Environment record.

def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(binary_env):
    env = {
        "git_revision": git_revision(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
    }
    env.update(binary_env)
    return env


# ---------------------------------------------------------------------------
# One run.

def run_in_group(argv, timeout):
    """Runs the benchmark binary in its own process group, so that on a timeout the
    server it spawned is killed with it."""
    child = subprocess.Popen(argv, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RuntimeError(f"specbench exceeded {timeout:.0f} s")
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if code != 0:
        raise RuntimeError(f"specbench exited with code {code}")


def run(args):
    spec = load_spec()
    started = time.monotonic()
    specbench, specmined = build()
    run_started = time.monotonic()

    work = WORK_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = RESULTS_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"seed{args.seed}-trace{args.trace}"
    spans = stem.with_suffix(".spans.jsonl")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(work)]
    try:
        subprocess.run([str(specbench), "gen"] + common, check=True,
                       stdout=sys.stderr, timeout=60)
        # Write back what the build and the generator left dirty, so that
        # it does not land in the fsyncs the workloads time.
        os.sync()
        remaining = RUN_DEADLINE_S - (time.monotonic() - run_started)
        run_in_group(
            [str(specbench), "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--server", str(specmined), "--out", str(work / "result.json"),
             "--spans", str(spans)],
            max(remaining, 1))
        with open(work / "result.json") as f:
            result = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["env"] = environment(result.get("env", {}))
    result["build_seconds"] = run_started - started
    with open(stem.with_suffix(".json"), "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for m in metrics_spec:
        if m["name"] not in source:
            raise RuntimeError(f"result lacks metric {m['name']}")
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}

    print_summary(result, metrics, stem)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


def print_summary(result, metrics, stem):
    env = result["env"]
    corpus = result["corpus"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {int(result['trace'])}  samples {result['samples']}")
    print(f"env: rev {env['git_revision']} | {env['compiler']} | "
          f"{env['cpu_model']} | nproc {env['nproc']} | "
          f"simd {env['simd_dispatch']} | load threads {env['load_threads']}")
    print(f"corpus: {corpus['generator']} seed {corpus['seed']}: "
          f"{corpus['sequences']} sequences, {corpus['events']} events, "
          f"{corpus['distinct_events']} distinct, "
          f"{corpus['mean_occurrences_per_event']:.2f} occurrences/event, "
          f"auto backend {corpus['auto_backend']}")
    for a in result["assertions"]:
        print(f"assert {'ok  ' if a['ok'] else 'FAIL'} {a['name']}: "
              f"{a['detail']}")
    print(f"outputs: {result['attempted']} attempted, {result['failed']} "
          f"failed (failed_frac {result['end_to_end']['failed_frac']:g})")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:16.6g} {m['unit']}")
    if "self_time_ms" in result:
        print("self time by layer (ms): " + ", ".join(
            f"{k} {v:.1f}" for k, v in result["self_time_ms"].items()))
    print(f"result file: {stem.with_suffix('.json')}")


# ---------------------------------------------------------------------------
# Compare mode.

def load_results(directory):
    """{workload: {seed: result}} for the untraced result files under dir."""
    out = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            with open(path) as f:
                result = json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(result, dict) or "end_to_end" not in result:
            continue
        if result.get("trace"):
            continue
        out.setdefault(result["workload"], {})[result["seed"]] = result
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, changed, better, bound):
    """better / worse / unchanged / unresolved, by the benchmark's rules."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = quartiles(base)
    q1b, med_b, q3b = quartiles(changed)
    if med_a == 0:
        return "unresolved", 0.0
    worse_by = sign * (med_b - med_a) / med_a
    base_spread = (q3a - q1a) / med_a
    spread = max(base_spread, (q3b - q1b) / med_b if med_b else 0.0)
    wins = sum(1 for a in base for b in changed if sign * b < sign * a)
    losses = sum(1 for a in base for b in changed if sign * b > sign * a)
    pairs = len(base) * len(changed)
    if spread > bound:
        # Too noisy to trust the medians alone: a verdict also needs the
        # two sides' runs to be separated.
        if worse_by > bound and losses == pairs:
            return "worse", worse_by
        if -worse_by > base_spread and wins == pairs:
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > base_spread and wins >= 0.9 * pairs:
        return "better", worse_by
    return "unchanged", worse_by


def run_lengths(results):
    return {r["seconds"] for runs in results.values() for r in runs.values()}


def compare(base_dir, changed_dir):
    spec = load_spec()
    base, changed = load_results(base_dir), load_results(changed_dir)
    lengths = run_lengths(base) | run_lengths(changed)
    if len(lengths) > 1:
        # Run length moves setup_s (set-up repetitions), the p99 sample
        # count and drift, so results of different lengths do not compare.
        log("compare: the result sets were run for different lengths "
            f"({', '.join(f'{s:g} s' for s in sorted(lengths))})")
        return 2
    any_worse = False
    print(f"{'workload':14s} {'metric':22s} {'base median [q1, q3]':>32s} "
          f"{'changed median [q1, q3]':>32s} {'worse by':>9s}  verdict")
    for workload in sorted(set(base) | set(changed)):
        if workload not in base or workload not in changed:
            print(f"{workload:14s} (results on one side only)")
            continue
        for m in spec["end_to_end"]:
            a = [r["end_to_end"][m["name"]] for r in base[workload].values()]
            b = [r["end_to_end"][m["name"]] for r in changed[workload].values()]
            result, worse_by = verdict(a, b, m["better"], m["bound"])
            any_worse |= result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:14s} {m['name']:22s} "
                  f"{qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(70) +
                  f"{qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(34) +
                  f"{100 * worse_by:+8.2f}%  {result} ({m['unit']}, "
                  f"n={len(a)}/{len(b)}, bound {m['bound']:.0%})")
    return 1 if any_worse else 0


# ---------------------------------------------------------------------------

def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            log("usage: run.py compare BASE_DIR CHANGED_DIR")
            return 2
        return compare(sys.argv[2], sys.argv[3])
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    # Accepted so callers may pass it, but a run always lasts run_seconds:
    # results of different lengths would not compare.
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds != spec["run_seconds"]:
        log(f"specbench: --seconds {args.seconds} differs from run_seconds "
            f"{spec['run_seconds']} in BENCHMARK.json")
        return 2
    try:
        run(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"specbench: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
