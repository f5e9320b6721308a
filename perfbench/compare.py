"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py --base .perfbench/results/a/*.json \\
        --new .perfbench/results/b/*.json

Each file is a result ``perfbench/run.py`` wrote.  Results are grouped
by workload and trace mode; for every metric the medians of the two
sets are compared against the bound in ``BENCHMARK.json``.  Results
stamped with different hosts (cores, Python, numpy, platform) are
refused with exit code 3: numbers from two machines do not compare.
Exit code 1 means some metric got worse by more than its bound; 0 means
none did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text()) for path in paths]


def hosts(results: list[dict]) -> list[dict]:
    unique: list[dict] = []
    for result in results:
        if result["host"] not in unique:
            unique.append(result["host"])
    return unique


def bounds(benchmark: dict) -> dict[str, dict]:
    return {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def compare(base: list[dict], new: list[dict], spec: dict[str, dict]) -> list[dict]:
    """One row per (workload, trace, metric) present in both sets."""
    rows = []
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        a = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        names = [n for n in (a[0]["metrics"] if a else {}) if b and n in b[0]["metrics"]]
        for name in names:
            before = statistics.median(r["metrics"][name]["value"] for r in a)
            after = statistics.median(r["metrics"][name]["value"] for r in b)
            metric = spec.get(name, {})
            change = (after - before) / before if before else 0.0
            worse = -change if metric.get("better") == "higher" else change
            bound = metric.get("bound")
            rows.append({
                "workload": workload,
                "trace": trace,
                "metric": name,
                "unit": a[0]["metrics"][name]["unit"],
                "base": before,
                "new": after,
                "change": change,
                "bound": bound,
                "regressed": bound is not None and worse > bound,
                "runs": (len(a), len(b)),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)

    base, new = load(args.base), load(args.new)
    seen = hosts(base + new)
    if len(seen) > 1:
        print("refusing to compare results from different hosts:", file=sys.stderr)
        for host in seen:
            print(f"  {json.dumps(host, sort_keys=True)}", file=sys.stderr)
        return 3
    spec = bounds(json.loads((ROOT / "BENCHMARK.json").read_text()))
    rows = compare(base, new, spec)
    for row in rows:
        bound = "" if row["bound"] is None else f" bound {row['bound']:.2f}"
        flag = "  WORSE BEYOND BOUND" if row["regressed"] else ""
        print(
            f"{row['workload']:14s} t{int(row['trace'])} {row['metric']:30s} "
            f"{row['base']:12.4f} -> {row['new']:12.4f} {row['unit']:6s} "
            f"{row['change']:+7.1%}{bound} runs {row['runs'][0]}/{row['runs'][1]}"
            f"{flag}"
        )
    return 1 if any(row["regressed"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
