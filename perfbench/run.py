"""Out-of-process wire benchmark of the Curator service.

    python3 perfbench/run.py --workload ward-round --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  The server is set up
``SETUPS`` times in its own process (``perfbench/server.py``) and the
last one is loaded from this process over real sockets.  Prints a table
of every metric with its unit and sample count, the host stamp and the
load generator's validity, writes the full result to
``.perfbench/results/``, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  A run whose
checks fail prints ``correct: false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _table(result: dict) -> None:
    host = result["host"]
    print(
        f"perfbench {result['workload']} seed={result['seed']} "
        f"trace={int(result['trace'])} host: nproc={host['nproc']} "
        f"python={host['python']} numpy={'on' if host['numpy'] else 'off'} "
        f"{host['platform']}"
    )
    gen = result["generator"]
    print(
        f"  generator: {gen['connections']} connections, {gen['threads']} threads, "
        f"due-to-send lag p99 {gen['lag_p99_ms']:.3f} ms (n={gen['lag_n']}), "
        f"idle wake-up lag p99 {gen['idle_lag_p99_ms']:.3f} ms (n={gen['idle_lag_n']})"
        + ("  ** GENERATOR FELL BEHIND **" if gen["generator_behind"] else "")
    )
    print(f"  setups: {', '.join(f'{s:.2f}' for s in result['setups_s'])} s; "
          f"shard audit events {result['shard_audit_events']}; "
          f"device capacity {result['device_capacity']} B")
    for kind, summary in result["samples"].items():
        shown = ", ".join(f"{k} {v:.3f}" for k, v in summary.items() if k != "n")
        print(f"  {kind:7s} n={summary['n']:5d}  {shown} (ms, open loop)")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"    failure: {failure}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for name, metric in result.get("metrics", {}).items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']:6s} n={metric['n']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    # wake sleeping generator threads promptly while the other one parses
    sys.setswitchinterval(0.0005)
    result = run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    _table(result)
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (out / name).write_text(json.dumps(result, indent=2) + "\n")

    # the last line carries exactly the metrics BENCHMARK.json defines
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        result["correct"] = False
        print(f"  CHECK FAILED: no value for {', '.join(missing)}")
    metrics = {
        name: {
            "value": result["metrics"][name]["value"],
            "unit": result["metrics"][name]["unit"],
        }
        for name in wanted
    } if result["correct"] else {}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
