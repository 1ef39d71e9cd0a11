"""Command-line front end: verifications and experiments with JSON/CSV output.

Outputs are deterministic given the inputs and the seed; no timestamps or
environment data ever enter a result, and the inputs echo only what the
caller passed (``protocol-verify --qt N`` verifies ``qt_protocol(N)``, built
in memory, so its result names no file).  Exit codes: 0 success, 2 invalid
input, 3 semantic failure (a protocol that fails determinism).
"""

from __future__ import annotations

import csv
import json
import sys

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
    _residual,
    control_map,
    effective_choi,
    load_protocol,
    protocol_to_dict,
    target_overlap,
)
from .qmath import (
    assert_density_matrix,
    fidelity,
    matrix_from_pairs,
    matrix_to_pairs,
    random_state,
)
from .teleport import qt_protocol, teleport_detailed
from .theorem import proof_report

EXIT_INPUT_ERROR = 2
EXIT_SEMANTIC_ERROR = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _emit(result: dict, out_path):
    text = json.dumps(result, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _command_result(command: str, inputs: dict, outputs: dict, seed=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
    }


def _resolve_channel(channel_file, depolarizing_p, dim) -> tuple[KrausChannel, dict]:
    if (channel_file is None) == (depolarizing_p is None):
        _fail(EXIT_INPUT_ERROR,
              "provide exactly one of CHANNEL_FILE or --depolarizing P")
    try:
        if channel_file is not None:
            return load_channel(channel_file), {"channel_file": str(channel_file)}
        ch = depolarizing(depolarizing_p, dim)
        return ch, {"depolarizing": depolarizing_p, "dim": dim}
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))


def _tolerance(ctx, param, tol: float) -> float:
    if not 0 <= tol < np.inf:  # NaN fails too
        _fail(EXIT_INPUT_ERROR, f"--tol must be finite and >= 0, got {tol}")
    return tol


def _load_state(path) -> np.ndarray:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValueError('state JSON must have a "matrix" key')
    rho = matrix_from_pairs(data["matrix"])
    assert_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-10)
    return rho


@click.group()
@click.version_option(__version__)
def main():
    """Teleportation-resource protocols over noisy qudit channels."""


@main.command("channel-info")
@click.argument("channel_file", required=False, type=click.Path(exists=False))
@click.option("--depolarizing", "depolarizing_p", type=float, default=None,
              help="Build a depolarizing channel instead of reading a file.")
@click.option("--dim", type=int, default=2, show_default=True,
              help="System dimension for --depolarizing.")
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
@click.option("--depolarizing", "depolarizing_p", type=float, default=None)
@click.option("--dim", type=int, default=2, show_default=True)
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
    try:
        if state_file is not None:
            rho = _load_state(state_file)
        else:
            rho = random_state(ch.dim, random_seed)
        resource = None
        if mu is not None:
            coeffs = np.array([float(x) for x in mu.split(",")])
            if not (np.all(np.isfinite(coeffs)) and np.any(coeffs)):
                raise ValueError(f"--mu must be finite and not all zero, got {mu}")
            coeffs = coeffs / np.linalg.norm(coeffs)
            if coeffs.size != ch.dim:
                raise ValueError(
                    f"--mu needs {ch.dim} coefficients, got {coeffs.size}"
                )
            resource = np.zeros(ch.dim**2, dtype=complex)
            resource[:: ch.dim + 1] = coeffs
        output, probs = teleport_detailed(rho, ch, resource)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
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
              help="Verify the N-level teleportation protocol (N >= 2).")
@click.option("--depolarizing", "depolarizing_p", type=float, default=None)
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True,
              callback=_tolerance)
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
def cmd_protocol_verify(protocol_file, channel_file, qt_dim, depolarizing_p,
                        dim, tol, out):
    """Check determinism, formalism consistency, and the resource bound."""
    if (protocol_file is None) == (qt_dim is None):
        _fail(EXIT_INPUT_ERROR, "provide exactly one of PROTOCOL_FILE or --qt N")
    try:
        if protocol_file is not None:
            proto = load_protocol(protocol_file, validate=False)
        else:
            proto = qt_protocol(qt_dim)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    ch, echo = _resolve_channel(channel_file, depolarizing_p, dim)
    try:
        determinism_residual = proto.check_determinism(tol=tol)
    except ValueError as exc:
        _fail(EXIT_SEMANTIC_ERROR, str(exc))
    if proto.n != ch.dim:
        _fail(EXIT_INPUT_ERROR,
              f"protocol dim {proto.n} does not match channel dim {ch.dim}")

    r = choi(ch)
    controlled = control_map(proto, r)
    direct = effective_choi(proto, ch)
    consistency_gap = float(np.linalg.norm(controlled.matrix - direct.matrix))
    res = _residual(controlled)
    ent_fid = target_overlap(proto, r)
    report = proof_report(proto, tol=tol)
    bound_ok = report.verdicts["entanglement_bound_satisfied"]
    outputs = {
        "determinism_residual": determinism_residual,
        "consistency_gap": consistency_gap,
        "residual_to_target": res,
        "entanglement_fidelity": ent_fid,
        "entanglement_sum": report.entanglement_sum,
        "entanglement_bound": report.bound,
        "entanglement_bound_satisfied": bound_ok,
        "proof_report": report.to_dict(),
        "theorem_violation": bool(res < 1e-9 and not bound_ok),
    }
    inputs = {"protocol_file": protocol_file, "qt": qt_dim, **echo, "tol": tol}
    _emit(_command_result("protocol-verify", inputs, outputs), out)


_INTEGER = (lambda v: type(v) is int, "an integer")  # JSON true is a bool

# Every key an optimizer config may hold: a check of its JSON value, what the
# check asks for, and its default (the last three keys have none: required).
_CONFIG_KEYS = {
    "n": (*_INTEGER, 2),
    "p": (*_INTEGER, 2),
    "measured": (lambda v: v in MEASUREMENT_CHOICES,
                 f"one of {MEASUREMENT_CHOICES}", "full"),
    "mu_fixed": (lambda v: v is None or type(v) is list and all(
        type(x) in (int, float) for x in v), "a list of numbers or null", None),
    "qt_warm_start": (lambda v: type(v) is bool, "true or false", False),
    "evaluation_budget": _INTEGER,
    "restarts": _INTEGER,
    "seed": _INTEGER,
}


def _load_config(path, seed_override) -> tuple[dict, dict]:
    """The config file's JSON object (``--seed`` applied) and its values by
    key, defaults filled in; raises ValueError for an unknown key, a missing
    required one, or a value its check rejects."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a config must be a JSON object")
    if seed_override is not None:
        data["seed"] = seed_override
    unknown = [key for key in data if key not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(
            f"unknown key {unknown[0]!r}; the keys are {', '.join(_CONFIG_KEYS)}")
    values = {}
    for key, (check, wanted, *default) in _CONFIG_KEYS.items():
        if key not in data and not default:
            raise ValueError(f"missing key {key!r}")
        values[key] = data.get(key, *default)
        if not check(values[key]):
            raise ValueError(f"{key!r} must be {wanted}, got {json.dumps(values[key])}")
    return data, values


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
@click.option("--depolarizing", "depolarizing_p", type=float, default=None)
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--seed", "seed_override", type=int, default=None,
              help="Override the seed from the config file.")
@click.option("--trace", "trace_file", type=click.Path(), default=None,
              help="Write per-restart best-so-far traces as CSV.")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
def cmd_optimize(files, depolarizing_p, dim, seed_override, trace_file, out):
    """Search protocol space for the best fidelity under a resource budget."""
    channel_file, config_file = _split_channel_and_config(files, depolarizing_p)
    ch, echo = _resolve_channel(channel_file, depolarizing_p, dim)
    try:
        data, values = _load_config(config_file, seed_override)
        base = _parameterization_from_config(values)
        cfg = _search_config(values)
        result = run_optimize(ch, base, cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT_ERROR, f"invalid config: {exc}")
    if trace_file:
        with open(trace_file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["restart", "step", "best_fidelity"])
            for idx, trace in enumerate(result.restart_traces):
                for step, value in enumerate(trace):
                    writer.writerow([idx, step, f"{value:.12f}"])
    inputs = {**echo, "config_file": str(config_file), "config": data}
    _emit(_command_result("optimize", inputs, _result_outputs(result),
                          seed=cfg.seed), out)


@main.command("sweep")
@click.argument("files", nargs=-1, type=click.Path(exists=False))
@click.option("--theta-grid", required=True,
              help="Comma-separated entanglement angles in [0, pi/2].")
@click.option("--depolarizing", "depolarizing_p", type=float, default=None)
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--seed", "seed_override", type=int, default=None,
              help="Override the seed from the config file.")
@click.option("--out", type=click.Path(), default=None, help="Write CSV here.")
def cmd_sweep(files, theta_grid, depolarizing_p, dim, seed_override, out):
    """Best fidelity per entanglement angle, mu(theta) = (cos t, sin t)."""
    channel_file, config_file = _split_channel_and_config(files, depolarizing_p)
    ch, _ = _resolve_channel(channel_file, depolarizing_p, dim)
    try:
        grid = [float(x) for x in theta_grid.split(",")]
        cfg = _search_config(_load_config(config_file, seed_override)[1])
        rows = sweep_mu(ch, grid, cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT_ERROR, f"invalid input: {exc}")
    lines = ["theta,sumMu,bestFidelity,seed"]
    for row in rows:
        lines.append(
            f"{row.theta:.12f},{row.sum_mu:.12f},{row.best_fidelity:.12f},{row.seed}"
        )
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
