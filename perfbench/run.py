"""teleportlab benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Builds the workload's inputs from ``--seed``, runs one untimed warm-up op,
then runs ops back to back for at least ``--seconds`` seconds and at least
MIN_OPS ops, ending on a whole cycle of inputs.  Every op is checked outside
its timed interval.  ``--trace 0`` reports the end-to-end metrics, with op
times corrected to a reference machine speed (see ``Calibration``);
``--trace 1`` wraps each module's public functions and reports per-layer
self time and call counts instead.  The last line of stdout is one JSON
object; lines before it starting with ``#`` are for people.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in every child process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import CLI_COMMANDS, OP_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_OPS = 100          # p90 then has at least 10 samples beyond it
MAX_MEASURE_S = 140.0  # hard stop, so a run ends well within 180 s
SETUP_PROBES = 9
IMPORT_PROBES = 5


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_package():
    """Import teleportlab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import teleportlab

    where = Path(teleportlab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"teleportlab imported from {where}, not {SRC}")


def p50_p90(samples):
    """Median and the nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return (statistics.median(ordered),
            ordered[max(math.ceil(0.9 * len(ordered)) - 1, 0)])


def make_workload(name: str, workdir: Path, seed: int):
    """Import the package, build the inputs, and return the workload."""
    import_package()
    wl = WORKLOADS[name]()
    if name == "cli":
        wl.child_env = child_env()
    wl.build(seed, workdir)
    return wl


# The reference machine switches between a fast and a ~1.5x slower speed for
# tens of seconds at a time, so op times are corrected by a calibration timed
# between ops (see `corrected`).  A calibration runs before the first op and
# after every `every` ops; `window` calibrations each side of an op set its
# speed; `ref_ms` is the calibration's time at the fast speed and sets only
# the scale of corrected times.

class Calibration:
    """A fixed kernel of the kinds of work `search` and `simulate` do: small
    numpy calls, interpreter arithmetic and one dense complex product."""

    every, window, ref_ms = 1, 3, 5.0

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.big = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.small = self.big[:8, :8] + self.big[:8, :8].conj().T
        self.eye = np.eye(2)
        self.ms()  # first calls load LAPACK

    def ms(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(40):
            _, v = np.linalg.eigh(self.small)
            np.kron(v, v[:2, :2]) @ np.kron(v.conj().T, self.eye)
            sum(k * 0.5 for k in range(200))
        self.big @ self.big
        return 1e3 * (time.perf_counter() - t0)


class ChildCalibration:
    """A child process that only imports numpy, timed once per `cli` cycle
    and around every set-up probe.

    A `cli` op or a set-up probe is mostly interpreter start-up and
    shared-library loading, whose speed the in-process kernel does not track
    (correcting `cli` by the kernel widened its spread); this child does the
    same kind of work and runs none of teleportlab.
    """

    every, window, ref_ms = 5, 1, 150.0

    def ms(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(),
                       check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        return 1e3 * (time.perf_counter() - t0)


def setup_probe(name: str, seed: int) -> float:
    """Seconds to import teleportlab, build inputs and run one warm-up op."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = make_workload(name, Path(tmp), seed)
        wl.op(0)
        return time.perf_counter() - t0


def child_seconds(argv, count: int) -> list:
    """Run the child `count` times, one at a time; returns each wall time."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - t0)
    return times


def probe_setup_seconds(name: str, seed: int) -> tuple:
    """Set-up time of SETUP_PROBES fresh processes, one after another.

    A `ChildCalibration` runs before the first probe and after each one;
    returns the probes as measured and each at the reference speed, scaled
    by `ref_ms` over the median of the calibrations just before and after.
    """
    cal = ChildCalibration()
    cal_ms, wall = [cal.ms()], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            env=child_env(), check=True, capture_output=True, text=True)
        wall.append(float(proc.stdout.strip().splitlines()[-1]))
        cal_ms.append(cal.ms())
    return wall, [s * cal.ref_ms / statistics.median(cal_ms[k:k + 2])
                  for k, s in enumerate(wall)]


def measure(wl, op, seconds: float, min_ops: int, tracer=None,
            cal=None) -> dict:
    """Closed loop: next op starts when the previous one and its check end.

    With `cal`, a calibration runs before the first op and after every
    `cal.every` ops, outside the timed intervals; `cal_ms[k]` is the one
    before op k * cal.every.  `timed` holds (op index, seconds) of every op
    that passed.
    """
    timed, errors = [], []
    cal_ms = [cal.ms()] if cal else []
    count_evals = getattr(wl, "evaluations", None)
    attempted = evals = 0
    busy = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > MAX_MEASURE_S:
            break
        if attempted % wl.cycle == 0 and attempted >= min_ops and elapsed >= seconds:
            break
        i = attempted
        attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = op(i)
                dt = time.perf_counter() - t0
            else:
                tracer.current_op = i
                tracer.active = True
                try:
                    t0 = time.perf_counter()
                    with tracer.span(OP_SPAN):
                        result = op(i)
                    dt = time.perf_counter() - t0
                finally:
                    tracer.active = False
            busy += dt
            error = wl.check(i, result)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        if cal and attempted % cal.every == 0:
            cal_ms.append(cal.ms())
        if error is None:
            timed.append((i, dt))
            if count_evals is not None:
                evals += count_evals(result)
        else:
            errors.append(f"op {i}: {error}")
    return {"attempted": attempted, "failed": len(errors), "errors": errors,
            "latencies": [dt for _, dt in timed], "evals": evals,
            "busy_s": busy, "cal_ms": cal_ms,
            "corrected": corrected(timed, cal_ms, cal) if cal else []}


def corrected(timed: list, cal_ms: list, cal) -> list:
    """Op times at the reference speed: each scaled by `cal.ref_ms` over the
    median of the `cal.window` calibrations each side of the op."""
    out = []
    for i, dt in timed:
        j = i // cal.every + 1  # the first calibration after the op
        out.append(dt * cal.ref_ms / statistics.median(
            cal_ms[max(0, j - cal.window):j + cal.window]))
    return out


def environment(args) -> dict:
    import numpy as np
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": version("scipy"),
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV, "clients": 1, "max_children": 1,
    }


def end_to_end(wl, run: dict, setup: list, rss_mb: float) -> dict:
    """Metric name -> (value, unit, sample count); op times at the
    reference speed, set-up as measured."""
    times = run["corrected"]
    n, busy = len(times), sum(times)
    p50, p90 = p50_p90(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (n / busy, "1/s", n),
        "op_ms_p50": (1e3 * p50, "ms", n),
        "op_ms_p90": (1e3 * p90, "ms", n),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    if wl.name == "search":
        metrics["evals_per_s"] = (run["evals"] / busy, "1/s", run["evals"])
    return metrics


def wall_figures(run: dict, setup_wall: list) -> dict:
    """The times as measured, without the speed correction."""
    p50, p90 = p50_p90(run["latencies"])
    return {"ops_per_s": len(run["latencies"]) / run["busy_s"],
            "op_ms_p50": 1e3 * p50, "op_ms_p90": 1e3 * p90,
            "setup_s": statistics.median(setup_wall)}


def per_layer(run: dict, tracer: Tracer, import_ms: float) -> tuple:
    """Per-op layer metrics, name -> (value, unit); and inclusive ms per call."""
    self_ns, calls, name, dur = tracer.summary()
    ops = run["attempted"]
    metrics, inclusive = {}, {}
    for k, span in enumerate(tracer.names):
        if calls[k]:
            inclusive[span] = float(dur[name == k].sum()) / 1e6 / int(calls[k])
        if span.startswith("cli."):
            continue
        metrics[f"{span}.self_ms"] = (self_ns[k] / 1e6 / ops, "ms")
        if span != OP_SPAN:
            metrics[f"{span}.calls"] = (int(calls[k]) / ops, "count")
    c = tracer.counters
    metrics["qmath.embed_operator.bytes"] = (
        c["qmath.embed_operator.bytes"] / ops, "bytes_computed")
    metrics["optimize.evals"] = (c["optimize.evals"] / ops, "count")
    metrics["optimize.accept_ratio"] = (
        c["optimize.accepted"] / c["optimize.iterations"]
        if c["optimize.iterations"] else 0.0, "ratio")
    metrics["cli.import_ms"] = (import_ms, "ms")
    for cmd in CLI_COMMANDS:
        spans = dur[name == tracer.ids[f"cli.{cmd}"]]
        ms = statistics.median(spans.tolist()) / 1e6 if spans.size else 0.0
        metrics[f"cli.{cmd}.ms_p50"] = (ms, "ms")
    metrics["trace.ops_per_s"] = (len(run["latencies"]) / run["busy_s"], "1/s")
    return metrics, inclusive


def run_untraced(wl, seconds: float, min_ops: int) -> dict:
    wl.op(0)  # warm-up
    cal = ChildCalibration() if wl.name == "cli" else Calibration()
    return measure(wl, wl.op, seconds, min_ops, cal=cal)


def run_traced(wl, seconds: float, min_ops: int) -> tuple:
    """Measure with every listed function wrapped; cli commands in-process."""
    tracer = Tracer()
    op = wl.op
    if wl.name == "cli":
        def op(i):
            with tracer.span("cli." + wl.command_name(i)):
                return wl.op_in_process(i)
        wl.op_in_process(0)  # warm-up
    else:
        wl.op(0)  # warm-up
    tracer.install()
    try:
        run = measure(wl, op, seconds, min_ops, tracer)
    finally:
        tracer.uninstall()
    return run, tracer


def emit(run: dict, metrics: dict, detail: dict) -> None:
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))


def every_op_failed(run: dict) -> int:
    """No op passed, so there is nothing to measure: fail without a result."""
    for err in run["errors"][:10]:
        print(f"error: {err}", file=sys.stderr)
    print(f"error: all {run['attempted']} ops failed", file=sys.stderr)
    return 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used internally)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "teleportlab" / "__init__.py").is_file():
        print(f"error: no teleportlab sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = make_workload(args.workload, Path(tmp), args.seed)
        detail = {"env": environment(args)}
        if args.trace:
            run, tracer = run_traced(wl, args.seconds, MIN_OPS)
            if not run["latencies"]:
                return every_op_failed(run)
            tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
            import_s = child_seconds(
                [sys.executable, "-c", "import teleportlab.cli"], IMPORT_PROBES)
            metrics, detail["inclusive_ms_per_call"] = per_layer(
                run, tracer, 1e3 * statistics.median(import_s))
        else:
            run = run_untraced(wl, args.seconds, MIN_OPS)
            if not run["latencies"]:
                return every_op_failed(run)
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
                   else resource.RUSAGE_SELF)
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            setup_wall, setup = probe_setup_seconds(args.workload, args.seed)
            e2e = end_to_end(wl, run, setup, rss_mb)
            metrics = {k: v[:2] for k, v in e2e.items() if k != "evals_per_s"}
            detail["samples"] = {k: v[2] for k, v in e2e.items()}
            detail["setup_probes_s"] = setup_wall
            detail["cal_ms_p50"] = statistics.median(run["cal_ms"])
            detail["wall"] = wall_figures(run, setup_wall)
            if "evals_per_s" in e2e:
                detail["evals_per_s"] = e2e["evals_per_s"][0]
            for k, (value, unit, n) in e2e.items():
                print(f"# {k} = {value:.6g} {unit} (n={n})")
            print("# uncorrected " + ", ".join(
                f"{k} = {v:.6g}" for k, v in detail["wall"].items()))
    detail["fail_ratio"] = run["failed"] / run["attempted"]
    detail["errors"] = run["errors"][:10]
    print(f"# fail_ratio = {detail['fail_ratio']} ({run['failed']}/{run['attempted']})")
    for err in detail["errors"]:
        print(f"# error: {err}", file=sys.stderr)
    emit(run, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
