"""Checks on the benchmark itself: spread, determinism, sensitivity.

    python3 hostbench/check.py spread --seeds 1-10 --seconds 20
    python3 hostbench/check.py determinism --seeds 1,1001 --seconds 5
    python3 hostbench/check.py sensitivity --layer core --delay-us 20 \\
        --workloads nfs-hit,sfs-mix,web-miss --seeds 1-4 --seconds 20

Every run is one ``run.py`` process, started one after another so runs
never compete for the host.  Results go to standard output and, as
JSON, to ``.hostbench/check-<mode>[-<layer>].json``.

* ``spread`` runs each workload once per seed and reports, per
  end-to-end metric, the quartile spread ``(q3 - q1) / median`` next to
  the bound in ``BENCHMARK.json``.
* ``determinism`` runs each (workload, seed) twice, plain and traced,
  and fails unless every simulated result and every per-layer count
  repeats exactly.
* ``sensitivity`` rotates plain runs, runs with count-only wrappers on
  ``--layer`` and runs whose wrappers also busy-wait ``--delay-us`` on
  every call, and compares the slowed ``host_ops_per_s`` with the
  wrapped one plus ``calls_per_op x delay`` per op.  Where the layer has
  no calls, the slowed runs must stay within the bound of
  ``host_ops_per_s`` of the plain ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The workloads in BENCHMARK.json.  ``nfs-hit`` also runs, but only as
#: an extra case for ``sensitivity`` (it makes no calls into ``cache``).
WORKLOADS = ("sfs-mix", "web-miss", "fleet-coop")


def seeds_arg(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int = 0,
        slow: Optional[str] = None) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if slow:
        cmd += ["--slow", slow]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported an incorrect run: "
                         f"{result['details']['problems']}")
    return result


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def bounds() -> Dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def check_spread(args: Any) -> Dict[str, Any]:
    limits = bounds()
    report: Dict[str, Any] = {}
    for workload in args.workloads:
        values: Dict[str, List[float]] = {}
        for seed in args.seeds:
            result = run(workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 3)
                                   for k, v in values.items()}, flush=True)
        report[workload] = {
            name: {"median": statistics.median(vals),
                   "spread": spread(vals), "bound": limits[name],
                   "values": vals}
            for name, vals in values.items()}
        for name, row in report[workload].items():
            flag = "ok" if row["spread"] < row["bound"] / 3 else \
                ("WIDE" if row["spread"] < row["bound"] else "OVER")
            print(f"  {workload:10s} {name:20s} median {row['median']:12.4f}"
                  f"  spread {row['spread']:.4f}  bound {row['bound']}"
                  f"  {flag}", flush=True)
    return report


def check_determinism(args: Any) -> Dict[str, Any]:
    report: Dict[str, Any] = {}
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            prints = []
            for trace in (0, 1, 0, 1):
                result = run(workload, seed, args.seconds, trace)
                details = result["details"]
                prints.append((details["model_fingerprint"],
                               details.get("layer_fingerprint")))
                report[f"{workload}/{seed}/trace{trace}"] = {
                    name: metric["value"]
                    for name, metric in result["metrics"].items()}
            model = {p[0] for p in prints}
            layer = {p[1] for p in prints if p[1] is not None}
            same = len(model) == 1 and len(layer) == 1
            ok = ok and same
            report[f"{workload}/{seed}"] = {"model": sorted(model),
                                            "layers": sorted(layer),
                                            "identical": same}
            print(workload, seed, "identical" if same else "DIFFERENT",
                  sorted(model), sorted(layer), flush=True)
    report["identical"] = ok
    return report


def check_sensitivity(args: Any) -> Dict[str, Any]:
    """Three kinds of run per seed, in rotating order: plain, wrapped
    with no delay (what the wrappers alone cost) and wrapped with the
    delay.  The prediction adds ``calls_per_op x delay`` to the
    wrapped-only time per op."""
    kinds = {"plain": None, "wrapped": f"{args.layer}:0",
             "slowed": f"{args.layer}:{args.delay_us}"}
    limits = bounds()
    report: Dict[str, Any] = {}
    for workload in args.workloads:
        values: Dict[str, List[float]] = {kind: [] for kind in kinds}
        calls: List[float] = []
        names = list(kinds)
        for i, seed in enumerate(args.seeds):
            for kind in names[i % 3:] + names[:i % 3]:
                result = run(workload, seed, args.seconds, slow=kinds[kind])
                values[kind].append(
                    result["metrics"]["host_ops_per_s"]["value"])
                if kind == "slowed":
                    calls.append(result["details"]["slow"]["calls_per_op"])
        median = {kind: statistics.median(v) for kind, v in values.items()}
        calls_per_op = statistics.median(calls)
        wrapped_us = 1e6 / median["wrapped"]
        predicted = 1e6 / (wrapped_us + calls_per_op * args.delay_us)
        row: Dict[str, Any] = {
            "calls_per_op": calls_per_op, "delay_us": args.delay_us,
            "median_host_ops_per_s": median,
            "predicted_slowed_host_ops_per_s": predicted,
            "change_slowed_vs_plain": median["slowed"] / median["plain"] - 1,
            "bound": limits["host_ops_per_s"], "runs": values}
        if calls_per_op:
            row["measured_over_predicted_us_per_op"] = \
                (1e6 / median["slowed"] - wrapped_us) \
                / (calls_per_op * args.delay_us)
        else:
            row["within_bound"] = \
                abs(row["change_slowed_vs_plain"]) <= row["bound"]
        report[workload] = row
        print(json.dumps({workload: {k: v for k, v in row.items()
                                     if k != "runs"}}), flush=True)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("spread", "determinism",
                                         "sensitivity"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        type=lambda s: s.split(","))
    parser.add_argument("--seeds", default="1-10", type=seeds_arg)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--layer", default="core")
    parser.add_argument("--delay-us", type=float, default=20.0)
    args = parser.parse_args()
    report = {"spread": check_spread, "determinism": check_determinism,
              "sensitivity": check_sensitivity}[args.mode](args)
    out = ROOT / ".hostbench"
    out.mkdir(exist_ok=True)
    name = f"{args.mode}-{args.layer}" if args.mode == "sensitivity" \
        else args.mode
    (out / f"check-{name}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    if args.mode == "determinism" and not report["identical"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
