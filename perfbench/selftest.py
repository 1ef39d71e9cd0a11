"""Self-test of the traced run: its deterministic counts repeat exactly.

    python3 perfbench/selftest.py

For every workload, runs the traced loop twice on seed SEED, once over one
cycle of inputs and once over two, and requires every ``.calls`` metric,
``optimize.evals``, ``optimize.accept_ratio`` and
``qmath.embed_operator.bytes`` to be equal.  It also requires every op to
pass its check and the tracer to leave the package unwrapped.  Prints
every mismatch and exits 1 if there is any.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run
from tracing import LAYERS

SEED = 7
DETERMINISTIC = ("optimize.evals", "optimize.accept_ratio",
                 "qmath.embed_operator.bytes")


def deterministic_counts(metrics: dict) -> dict:
    return {k: v[0] for k, v in metrics.items()
            if k.endswith(".calls") or k in DETERMINISTIC}


def check_workload(name: str, seed: int) -> list:
    problems = []
    counts = []
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        wl = run.make_workload(name, Path(tmp), seed)
        for cycles in (1, 2):
            result, tracer = run.run_traced(wl, 0.0, cycles * wl.cycle)
            if result["failed"]:
                problems.append(f"{name}: failed ops {result['errors']}")
            if result["attempted"] != cycles * wl.cycle:
                problems.append(f"{name}: ran {result['attempted']} ops, "
                                f"expected {cycles * wl.cycle}")
            metrics, _ = run.per_layer(result, tracer, 0.0)
            counts.append(deterministic_counts(metrics))
    first, second = counts
    for key in first:
        if first[key] != second[key]:
            problems.append(f"{name}: {key} differs: {first[key]!r} vs {second[key]!r}")
    used = [k for k, v in first.items() if k.endswith(".calls") and v]
    if not used:
        problems.append(f"{name}: no traced calls recorded")
    return problems


def check_unwrapped() -> list:
    """After a traced run, every listed function is the package's own again."""
    problems = []
    for layer, funcs in LAYERS.items():
        mod = sys.modules[f"teleportlab.{layer}"]
        for func in funcs:
            obj = mod
            for part in func.split("."):
                obj = getattr(obj, part)
            if obj.__module__ != mod.__name__:
                problems.append(f"{layer}.{func} still wrapped after the run")
    return problems


def main() -> int:
    if not (run.SRC / "teleportlab" / "__init__.py").is_file():
        print(f"error: no teleportlab sources under {run.SRC}", file=sys.stderr)
        return 2
    run.OUT_DIR.mkdir(exist_ok=True)
    problems = []
    for name in run.WORKLOADS:
        found = check_workload(name, SEED)
        print(f"{name}: {'ok' if not found else 'FAIL'}")
        problems += found
    problems += check_unwrapped()
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
