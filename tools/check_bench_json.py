#!/usr/bin/env python3
"""Validates BENCH_core.json: schema plus the backend benchmark entries.

CI's perf-smoke step runs this after bench_micro_core so a refactor that
drops a benchmark, emits malformed JSON, or stops exercising one of the
index layouts fails fast. Timings themselves are NOT asserted (CI
machines are too noisy); the committed BENCH_core.json carries the
trajectory.

Usage: check_bench_json.py <path-to-BENCH_core.json>
"""

import json
import sys

# Benchmarks that must be present: the shared hot paths plus both layouts
# of the counting index (the backend-drift tripwire).
REQUIRED = [
    "CountOccurrences",
    "BitmapIndexBuild",
    "BitmapForwardExtensions",
    "BitmapForwardExtensionsReuse",
    "BitmapBackwardExtensionsReuse",
    "BitmapQreCountInstances",
    "BitmapCountOccurrences",
    "SparseForwardExtensionsBitmap",
    "HybridSparseForwardExtensions",
    "DbLoadSmdbMmap",
    "DbShardParallel",
    "IncrementalRemine",
    "ColdRemine",
]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: unreadable or malformed JSON: {e}", file=sys.stderr)
        return 1

    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        print(f"{path}: missing non-empty 'benchmarks' array", file=sys.stderr)
        return 1

    seen = {}
    for i, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            print(f"{path}: benchmarks[{i}] is not an object", file=sys.stderr)
            return 1
        name = entry.get("name")
        ns = entry.get("ns_per_op")
        if not isinstance(name, str) or not name:
            print(f"{path}: benchmarks[{i}] has no name", file=sys.stderr)
            return 1
        if not isinstance(ns, (int, float)) or ns <= 0:
            print(f"{path}: {name}: ns_per_op must be positive, got {ns!r}",
                  file=sys.stderr)
            return 1
        if name in seen:
            print(f"{path}: duplicate benchmark name {name}", file=sys.stderr)
            return 1
        seen[name] = ns

    missing = [name for name in REQUIRED if name not in seen]
    if missing:
        print(f"{path}: missing required benchmarks: {', '.join(missing)}",
              file=sys.stderr)
        return 1

    print(f"{path}: OK ({len(seen)} benchmarks, all {len(REQUIRED)} "
          "required entries present)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
