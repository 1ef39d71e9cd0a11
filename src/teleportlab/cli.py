"""Command-line front end: verifications and experiments with JSON/CSV output.

Outputs are deterministic given the inputs and the seed; no timestamps or
environment data ever enter a result, and the inputs echo only what the
caller passed (``protocol-verify --qt N`` verifies ``qt_protocol(N)``, built
in memory, so its result names no file).  Exit codes: 0 success, 2 invalid
input, 3 semantic failure (a protocol that fails determinism).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import click
import numpy as np

from . import __version__
from .channels import (
    KrausChannel,
    _rank,
    _tp_deviation,
    choi,
    depolarizing,
    load_channel,
)
from .optimize import (
    MEASUREMENT_CHOICES,
    OptimizationConfig,
    OptimizationResult,
    optimize as run_optimize,
    qt_parameterization,
    sweep_mu,
    zero_parameterization,
)
from .protocol import (
    AncillaResource,
    _check_channel_dim,
    _check_dims,
    _residual,
    _schmidt_weights,
    control_map,
    effective_choi,
    load_protocol,
    protocol_to_dict,
    target_overlap,
)
from .qmath import (
    _INTEGER,
    _MATRIX,
    _NUMBERS,
    _check_size,
    _check_tol,
    _load_json,
    _read_json,
    assert_density_matrix,
    fidelity,
    matrix_from_pairs,
    matrix_to_pairs,
    random_state,
)
from .teleport import _check_qt_dim, qt_protocol, teleport_detailed
from .theorem import proof_report

EXIT_INPUT_ERROR = 2
EXIT_SEMANTIC_ERROR = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _exits(code: int = EXIT_INPUT_ERROR, prefix: str = ""):
    """The one boundary from errors to exit codes: a ValueError or OSError
    raised in the block exits ``code`` with ``error: <prefix><message>``."""
    try:
        yield
    except (ValueError, OSError) as exc:
        _fail(code, f"{prefix}{exc}")


def _numbers(text: str, option: str) -> list:
    """The comma-separated numbers of an option's value."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(
            f"{option} must be comma-separated numbers, got {text!r}") from None


def _channel_options(command):
    """The --depolarizing P and --dim N options of every command that takes
    a channel."""
    command = click.option("--dim", type=int, default=2, show_default=True,
                           help="System dimension for --depolarizing.")(command)
    return click.option(
        "--depolarizing", "depolarizing_p", type=float, default=None,
        help="Build a depolarizing channel instead of reading a file.")(command)


def _emit(text: str, out_path) -> None:
    """Write text to out_path (exit 2 if it cannot be written), else to stdout."""
    if not out_path:
        click.echo(text, nl=False)
        return
    with _exits(), open(out_path, "w") as fh:
        fh.write(text)


def _command_result(command: str, inputs: dict, outputs: dict, seed=None) -> str:
    return json.dumps(dict(command=command, inputs=inputs, outputs=outputs,
                           seed=seed, version=__version__), indent=2) + "\n"


def _resolve_channel(channel_file, depolarizing_p, dim) -> tuple[KrausChannel, dict]:
    if (channel_file is None) == (depolarizing_p is None):
        _fail(EXIT_INPUT_ERROR,
              "provide exactly one of CHANNEL_FILE or --depolarizing P")
    with _exits():
        if channel_file is not None:
            return load_channel(channel_file), {"channel_file": str(channel_file)}
        ch = depolarizing(depolarizing_p, dim)
        return ch, {"depolarizing": depolarizing_p, "dim": dim}


def _tolerance(ctx, param, tol: float) -> float:
    with _exits(prefix="--"):
        _check_tol(tol)
    return tol


def _load_state(path) -> np.ndarray:
    dim, matrix = _read_json(_load_json(path), _STATE_KEYS).values()
    rho = matrix_from_pairs(matrix)
    if len(rho) != dim:
        raise ValueError(f"'matrix' shape {rho.shape} does not match 'dim' {dim}")
    assert_density_matrix(rho, tol=1e-10)
    return rho


@click.group()
@click.version_option(__version__)
@click.pass_context
def main(ctx):
    """Teleportation-resource protocols over noisy qudit channels."""
    # an overflow to inf is reported by the validators, not as a numpy warning
    ctx.with_resource(np.errstate(over="ignore", invalid="ignore"))


@main.command("channel-info")
@click.argument("channel_file", required=False, type=click.Path(exists=False))
@_channel_options
@click.option("--tol", type=float, default=1e-10, show_default=True,
              callback=_tolerance, help="Relative eigenvalue cutoff for the rank.")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
def cmd_channel_info(channel_file, depolarizing_p, dim, tol, out):
    """Report dimension, Choi spectrum, rank, and CPTP residuals."""
    ch, echo = _resolve_channel(channel_file, depolarizing_p, dim)
    r = choi(ch)
    outputs = {
        "dim": ch.dim,
        "kraus_count": len(ch.kraus),
        "choi_eigenvalues": [float(v) for v in r.eigenvalues],
        "rank": _rank(r.eigenvalues, tol),
        "cptp_residuals": {
            "trace_preserving": _tp_deviation(ch.kraus),
            "choi_min_eigenvalue": float(r.eigenvalues[-1]),
            "choi_trace_deviation": abs(float(np.trace(r.matrix).real) - 1.0),
        },
    }
    _emit(_command_result("channel-info", {**echo, "tol": tol}, outputs), out)


@main.command("teleport")
@click.argument("channel_file", required=False, type=click.Path(exists=False))
@_channel_options
@click.option("--state", "state_file", type=click.Path(), default=None,
              help="Density-matrix JSON file to teleport.")
@click.option("--random", "random_seed", type=int, default=None,
              help="Teleport a seeded random state instead of a file.")
@click.option("--mu", default=None,
              help="Comma-separated Schmidt coefficients of the resource.")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
def cmd_teleport(channel_file, depolarizing_p, dim, state_file, random_seed, mu, out):
    """Teleport a state through a channel; report fidelity and branch stats."""
    ch, echo = _resolve_channel(channel_file, depolarizing_p, dim)
    if (state_file is None) == (random_seed is None):
        _fail(EXIT_INPUT_ERROR, "provide exactly one of --state or --random SEED")
    with _exits():
        if state_file is not None:
            rho = _load_state(state_file)
        else:
            _check_size(random_seed, "--random", 0)
            rho = random_state(ch.dim, random_seed)
        resource = None if mu is None else AncillaResource(
            mu=_schmidt_weights(_numbers(mu, "--mu"), ch.dim, "--mu"))
        output, probs = teleport_detailed(rho, ch, resource)
    outputs = {
        "output_state": matrix_to_pairs(output),
        "fidelity_to_input": fidelity(output, rho),
        "branch_probabilities": [float(p) for p in probs],
    }
    inputs = {**echo, "state_file": state_file, "mu": mu}
    _emit(_command_result("teleport", inputs, outputs, seed=random_seed), out)


@main.command("protocol-verify")
@click.argument("protocol_file", required=False, type=click.Path(exists=False))
@click.argument("channel_file", required=False, type=click.Path(exists=False))
@click.option("--qt", "qt_dim", type=int, default=None,
              help="Verify the N-level teleportation protocol (N in 2..8).")
@_channel_options
@click.option("--tol", type=float, default=1e-9, show_default=True,
              callback=_tolerance)
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
def cmd_protocol_verify(protocol_file, channel_file, qt_dim, depolarizing_p,
                        dim, tol, out):
    """Check determinism, formalism consistency, and the resource bound."""
    if qt_dim is not None and channel_file is None:  # --qt N [CHANNEL_FILE]
        protocol_file, channel_file = None, protocol_file
    if (protocol_file is None) == (qt_dim is None):
        _fail(EXIT_INPUT_ERROR, "provide exactly one of PROTOCOL_FILE or --qt N")
    with _exits():
        if protocol_file is not None:
            proto = load_protocol(protocol_file, validate=False)
        else:  # qt_protocol(N) is built once the channel's dim matches N
            _check_qt_dim(qt_dim)
    ch, echo = _resolve_channel(channel_file, depolarizing_p, dim)
    if qt_dim is not None:
        with _exits():
            _check_channel_dim(qt_dim, ch)
            proto = qt_protocol(qt_dim)
    with _exits(EXIT_SEMANTIC_ERROR):
        determinism_residual = proto.check_determinism(tol=tol)
    with _exits():
        _check_channel_dim(proto.n, ch)

    r = choi(ch)
    # a loose --tol can pass operators whose Choi state is no state
    with _exits(EXIT_SEMANTIC_ERROR, "controlled Choi state is not a state: "):
        controlled, direct = control_map(proto, r), effective_choi(proto, ch)
    consistency_gap = float(np.linalg.norm(controlled.matrix - direct.matrix))
    res = _residual(controlled)
    ent_fid = target_overlap(proto, r)
    report = proof_report(proto, tol=tol)
    bound_ok = report["verdicts"]["entanglement_bound_satisfied"]
    outputs = {
        "determinism_residual": determinism_residual,
        "consistency_gap": consistency_gap,
        "residual_to_target": res,
        "entanglement_fidelity": ent_fid,
        "entanglement_sum": report["entanglement_sum"],
        "entanglement_bound": report["bound"],
        "entanglement_bound_satisfied": bound_ok,
        "proof_report": report,
        "theorem_violation": bool(res < 1e-9 and not bound_ok),
    }
    inputs = {"protocol_file": protocol_file, "qt": qt_dim, **echo, "tol": tol}
    _emit(_command_result("protocol-verify", inputs, outputs), out)


# Every key a state or an optimizer config may hold, laid out for _read_json
_STATE_KEYS = {"dim": _INTEGER, "matrix": _MATRIX}
_CONFIG_KEYS = {
    "n": (*_INTEGER, 2),
    "p": (*_INTEGER, 2),
    "measured": (lambda v: v in MEASUREMENT_CHOICES,
                 f"one of {MEASUREMENT_CHOICES}", "full"),
    "mu_fixed": (lambda v: v is None or _NUMBERS[0](v),
                 "a list of numbers or null", None),
    "qt_warm_start": (lambda v: type(v) is bool, "true or false", False),
    "evaluation_budget": _INTEGER,
    "restarts": _INTEGER,
    "seed": _INTEGER,
}


def _load_config(path, seed_override) -> tuple[dict, dict]:
    """The config file's JSON object (``--seed`` applied) and its values by
    key, defaults filled in, as ``_read_json`` reads them."""
    data = _load_json(path)
    if seed_override is not None and isinstance(data, dict):
        data["seed"] = seed_override
    return data, _read_json(data, _CONFIG_KEYS)


def _parameterization_from_config(values: dict):
    n, local_dim, measured, mu_fixed = (
        values[key] for key in ("n", "p", "measured", "mu_fixed"))
    if values["qt_warm_start"]:
        if mu_fixed is not None or measured != "full" or local_dim != n:
            raise ValueError("qt_warm_start fixes p=n, measured=full, and free mu")
        return qt_parameterization(n)
    return zero_parameterization(n, local_dim, measured, mu_fixed=mu_fixed)


def _search_config(values: dict) -> OptimizationConfig:
    return OptimizationConfig(values["evaluation_budget"], values["restarts"],
                              values["seed"], warm_start=values["qt_warm_start"])


def _result_outputs(result: OptimizationResult) -> dict:
    return {
        "best_fidelity": result.best_fidelity,
        "best_residual": result.best_residual,
        "per_restart_bests": list(result.per_restart_bests),
        "evaluations_used": result.evaluations_used,
        "budget_exhausted": result.budget_exhausted,
        "best_protocol": protocol_to_dict(result.best_protocol),
    }


def _split_channel_and_config(files, depolarizing_p):
    """Resolve [CHANNEL_FILE] CONFIG_FILE positionals against --depolarizing."""
    if depolarizing_p is None:
        if len(files) != 2:
            _fail(EXIT_INPUT_ERROR,
                  "expected CHANNEL_FILE CONFIG_FILE (or --depolarizing P "
                  "with just CONFIG_FILE)")
        return files[0], files[1]
    if len(files) != 1:
        _fail(EXIT_INPUT_ERROR,
              "expected a single CONFIG_FILE when --depolarizing is given")
    return None, files[0]


@main.command("optimize")
@click.argument("files", nargs=-1, type=click.Path(exists=False))
@_channel_options
@click.option("--seed", "seed_override", type=int, default=None,
              help="Override the seed from the config file.")
@click.option("--trace", "trace_file", type=click.Path(), default=None,
              help="Write per-restart best-so-far traces as CSV.")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
def cmd_optimize(files, depolarizing_p, dim, seed_override, trace_file, out):
    """Search protocol space for the best fidelity under a resource budget."""
    channel_file, config_file = _split_channel_and_config(files, depolarizing_p)
    ch, echo = _resolve_channel(channel_file, depolarizing_p, dim)
    with _exits(prefix="invalid config: "):
        data, values = _load_config(config_file, seed_override)
        _check_channel_dim(values["n"], ch)  # the built channel names a wrong n first
        _check_dims(values["n"], values["p"])  # before a start point of ~(n*p)^3 floats
        base = _parameterization_from_config(values)
        cfg = _search_config(values)
        result = run_optimize(ch, base, cfg)
    if trace_file:
        _emit("restart,step,best_fidelity\n" + "".join(
            f"{idx},{step},{value:.12f}\n"
            for idx, trace in enumerate(result.restart_traces)
            for step, value in enumerate(trace)), trace_file)
    inputs = {**echo, "config_file": str(config_file), "config": data}
    _emit(_command_result("optimize", inputs, _result_outputs(result),
                          seed=cfg.seed), out)


@main.command("sweep")
@click.argument("files", nargs=-1, type=click.Path(exists=False))
@click.option("--theta-grid", required=True,
              help="Comma-separated entanglement angles in [0, pi/2].")
@_channel_options
@click.option("--seed", "seed_override", type=int, default=None,
              help="Override the seed from the config file.")
@click.option("--out", type=click.Path(), default=None, help="Write CSV here.")
def cmd_sweep(files, theta_grid, depolarizing_p, dim, seed_override, out):
    """Best fidelity per entanglement angle, mu(theta) = (cos t, sin t)."""
    channel_file, config_file = _split_channel_and_config(files, depolarizing_p)
    ch, _ = _resolve_channel(channel_file, depolarizing_p, dim)
    with _exits():
        grid = _numbers(theta_grid, "--theta-grid")
    with _exits(prefix="invalid input: "):
        values = _load_config(config_file, seed_override)[1]
        if values["qt_warm_start"]:
            raise ValueError("qt_warm_start must be false: sweep pins mu, and "
                             "the teleportation warm start needs free mu")
        rows = sweep_mu(ch, grid, _search_config(values))
    _emit("theta,sumMu,bestFidelity,seed\n" + "".join(
        f"{theta:.12f},{sum_mu:.12f},{best:.12f},{values['seed']}\n"
        for theta, sum_mu, best in rows), out)


if __name__ == "__main__":
    main()
