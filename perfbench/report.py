"""Run every workload untraced and traced, and print one report.

    python3 perfbench/report.py --seed 11 --out report.json

Runs ``run.py`` once per workload with ``--trace 0`` and once with
``--trace 1``, one process at a time, for run.py's default ``--seconds``.
Prints every end-to-end metric with its unit and sample count, the fail
ratio, the tracing overhead, the per-layer figures that the ROADMAP
baseline quotes, and the environment.
With ``--out`` it also writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("search", "simulate", "cli")

# Inclusive ms per call quoted by the ROADMAP baseline (simulate workload).
BASELINE_CALLS = ("protocol.effective_choi", "protocol.apply_protocol",
                  "teleport.teleport", "protocol.control_map",
                  "theorem.proof_report")


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    return {"result": result, "detail": detail}


def objective_ms_per_eval(evals_per_call: float) -> dict:
    """Traced ms per objective evaluation of configs (a) "none", (b) "full".

    Each search op calls optimize for (a) then (b), so the optimize spans
    alternate; includes the fixed per-call cost and the tracing overhead.
    """
    import numpy as np

    spans = np.load(BENCH_DIR / "out" / "spans-search.npz")
    names = list(spans["names"])
    which = spans["name"] == names.index("optimize.optimize")
    dur_ms = (spans["end_ns"][which] - spans["start_ns"][which]) / 1e6
    return {"none": float(np.median(dur_ms[0::2])) / evals_per_call,
            "full": float(np.median(dur_ms[1::2])) / evals_per_call}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    report = {"seed": args.seed, "workloads": {}}
    for workload in WORKLOADS:
        plain = run_once(workload, args.seed, 0)
        traced = run_once(workload, args.seed, 1)
        entry = {"end_to_end": plain, "per_layer": traced}
        e2e = plain["result"]["metrics"]
        samples = plain["detail"]["samples"]
        print(f"== {workload} (seed {args.seed})")
        for key, metric in e2e.items():
            print(f"  {key:14s} {metric['value']:12.6g} {metric['unit']:5s} "
                  f"n={samples[key]}")
        print("  uncorrected " + ", ".join(
            f"{k} {v:.6g}" for k, v in plain["detail"]["wall"].items()))
        if "evals_per_s" in plain["detail"]:
            print(f"  {'evals_per_s':14s} {plain['detail']['evals_per_s']:12.6g} "
                  f"1/s   n={samples['evals_per_s']}")
        for label, part in (("untraced", plain), ("traced", traced)):
            res = part["result"]
            print(f"  fail_ratio ({label}) = {part['detail']['fail_ratio']} "
                  f"({res['failed']}/{res['attempted']})")
        traced_ops = traced["result"]["metrics"]["trace.ops_per_s"]["value"]
        overhead = plain["detail"]["wall"]["ops_per_s"] / traced_ops - 1.0
        entry["tracing_overhead"] = overhead
        note = " (traced cli runs in-process: no spawn, no import)" \
            if workload == "cli" else ""
        print(f"  tracing overhead: untraced ops_per_s / traced - 1 = "
              f"{overhead:+.3f}{note}")
        inclusive = traced["detail"]["inclusive_ms_per_call"]
        if workload == "simulate":
            entry["baseline_ms_per_call"] = {
                k: inclusive.get(k) for k in BASELINE_CALLS}
            for k in BASELINE_CALLS:
                print(f"  {k} inclusive {inclusive.get(k, 0.0):.3f} ms/call")
        if workload == "search":
            evals = traced["result"]["metrics"]["optimize.evals"]["value"] / 2
            per_eval = objective_ms_per_eval(evals)
            entry["objective_ms_per_eval"] = per_eval
            print(f"  objective ms/eval: none {per_eval['none']:.3f}, "
                  f"full {per_eval['full']:.3f} (traced)")
        report["workloads"][workload] = entry
    report["env"] = plain["detail"]["env"]
    print("env " + json.dumps(report["env"], sort_keys=True))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
