"""Constrained search over parameterized protocols for a fixed channel.

Protocols are parameterized so that determinism holds by construction: the
sender applies one unitary (matrix exponential of a Hermitian generator)
followed by a complete projective measurement of the declared subsystems,
and the receiver applies one unitary per outcome.  The Schmidt profile of
the shared pair is either free (squared-softmax simplex map) or pinned.

The search itself is a derivative-free ascent: a simultaneous-perturbation
two-point gradient estimate proposes a move of the current step length, the
move is accepted only if it improves the objective, and the step decays
geometrically on rejection.  Restarts are independent and seeded, so runs
reproduce bit-identically.

The objective is compiled once per search (:func:`_compile_objective`): it
maps parameter vectors straight to fidelities with batched array code and
the same determinism checks, and builds no protocol objects; only the
winning point is decoded into a :class:`ResourceProtocol`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .channels import ChoiMatrix, KrausChannel, choi
from .protocol import (
    AncillaResource,
    ResourceProtocol,
    _blocks,
    _check_determinism,
    _check_schmidt,
    _control_operators,
    _overlap,
    _residual,
    basis_projections,
    control_map,
)
from .qmath import maximally_entangled
from .teleport import qt_protocol

MEASUREMENT_CHOICES = ("none", "ancilla", "full")


@lru_cache(maxsize=None)
def _hermitian_indices(d: int) -> tuple:
    """(diag, rows, cols): the diagonal and the strict upper triangle of a
    d x d matrix, read-only (the cache shares them)."""
    index = (np.arange(d), *np.triu_indices(d, k=1))
    for a in index:
        a.flags.writeable = False
    return index


def hermitian_to_vec(h: np.ndarray) -> np.ndarray:
    """Real parameter vector (length d^2) for a Hermitian matrix."""
    h = np.asarray(h, dtype=complex)
    _, rows, cols = _hermitian_indices(h.shape[0])
    upper = h[rows, cols]
    return np.concatenate([np.real(np.diagonal(h)), upper.real, upper.imag])


def vec_to_hermitian(vec: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_vec`; a (..., d^2) stack of vectors
    gives a (..., d, d) stack of matrices."""
    vec = np.asarray(vec, dtype=float)
    diag, rows, cols = _hermitian_indices(d)
    split = d + rows.size  # real parts of the upper triangle end here
    h = np.zeros(vec.shape[:-1] + (d, d), dtype=complex)
    h[..., diag, diag] = vec[..., :d]
    upper = vec[..., d:split] + 1j * vec[..., split:]
    h[..., rows, cols] = upper
    h[..., cols, rows] = upper.conj()
    return h


def unitary_from_generator(h: np.ndarray) -> np.ndarray:
    """exp(i H) for Hermitian H, via the eigendecomposition; a (..., d, d)
    stack of generators gives a stack of unitaries."""
    h = np.asarray(h, dtype=complex)
    h = (h + h.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _squared_softmax(params: np.ndarray) -> np.ndarray:
    """Schmidt vector(s) from P-1 free parameters per row (last logit pinned at 0)."""
    z = np.concatenate([params, np.zeros(params.shape[:-1] + (1,))], axis=-1)
    z = z - np.max(z, axis=-1, keepdims=True)
    weights = np.exp(z)
    return np.sqrt(weights / np.sum(weights, axis=-1, keepdims=True))


def generator_from_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian H with exp(i H) = U, phases taken in (-pi, pi]."""
    import scipy.linalg

    t, q = scipy.linalg.schur(np.asarray(u, dtype=complex), output="complex")
    phases = np.angle(np.diagonal(t))
    h = (q * phases) @ q.conj().T
    return (h + h.conj().T) / 2.0


def _branch_count(measured: str, n: int, p: int) -> int:
    """Outcomes of the sender's measurement: 1 for ``"none"``, P for
    ``"ancilla"``, N*P for ``"full"``; raises for any other ``measured``."""
    if measured not in MEASUREMENT_CHOICES:
        raise ValueError(
            f"measured must be one of {MEASUREMENT_CHOICES}, got {measured!r}"
        )
    return {"none": 1, "ancilla": p, "full": n * p}[measured]


@dataclass(frozen=True)
class ProtocolParameterization:
    """Point in protocol space: generators, measurement structure, mu map."""

    n: int
    local_dim: int
    measured: str
    sender_generator: np.ndarray
    receiver_generators: np.ndarray
    mu_params: np.ndarray
    mu_fixed: np.ndarray | None = None

    def __post_init__(self):
        count = _branch_count(self.measured, self.n, self.local_dim)
        d = self.n * self.local_dim
        object.__setattr__(
            self, "sender_generator",
            np.asarray(self.sender_generator, dtype=complex).reshape(d, d),
        )
        object.__setattr__(
            self, "receiver_generators",
            np.asarray(self.receiver_generators, dtype=complex).reshape(-1, d, d),
        )
        if self.receiver_generators.shape[0] != count:
            raise ValueError(
                f"need {count} receiver generators for "
                f"measured={self.measured!r}, got {self.receiver_generators.shape[0]}"
            )
        object.__setattr__(
            self, "mu_params", np.asarray(self.mu_params, dtype=float).reshape(-1)
        )
        if self.mu_fixed is not None:
            object.__setattr__(
                self, "mu_fixed", np.asarray(self.mu_fixed, dtype=float).reshape(-1)
            )
            if self.mu_fixed.size != self.local_dim:
                raise ValueError(
                    f"mu_fixed length {self.mu_fixed.size} does not match "
                    f"local dim {self.local_dim}"
                )
        elif self.mu_params.size != self.local_dim - 1:
            raise ValueError(
                f"need {self.local_dim - 1} free mu parameters, got {self.mu_params.size}"
            )

    @property
    def branch_count(self) -> int:
        return _branch_count(self.measured, self.n, self.local_dim)

    def projections(self) -> np.ndarray:
        """The sender's measurement: stacked computational projectors on A (x) a.

        ``"ancilla"`` measures a only, so its projectors interleave (basis
        state r*P + i goes to outcome i); the other two are contiguous.
        """
        d = self.n * self.local_dim
        labels = {"none": np.zeros(d, dtype=int), "full": np.arange(d),
                  "ancilla": np.arange(d) % self.local_dim}[self.measured]
        return basis_projections(labels)

    def mu(self) -> np.ndarray:
        """Schmidt coefficients: pinned vector, or squared-softmax of params."""
        if self.mu_fixed is not None:
            return self.mu_fixed / np.linalg.norm(self.mu_fixed)
        return _squared_softmax(self.mu_params)


def zero_parameterization(
    n: int,
    local_dim: int,
    measured: str,
    mu_fixed=None,
) -> ProtocolParameterization:
    """All-zero generators and flat mu; decodes to identity operations."""
    d = n * local_dim
    branches = _branch_count(measured, n, local_dim)
    return ProtocolParameterization(
        n=n,
        local_dim=local_dim,
        measured=measured,
        sender_generator=np.zeros((d, d)),
        receiver_generators=np.zeros((branches, d, d)),
        mu_params=np.zeros(max(local_dim - 1, 0)),
        mu_fixed=mu_fixed,
    )


def qt_parameterization(n: int) -> ProtocolParameterization:
    """Generators whose decoded protocol is the teleportation protocol."""
    qt = qt_protocol(n)
    return ProtocolParameterization(
        n=n,
        local_dim=n,
        measured="full",
        sender_generator=generator_from_unitary(qt.sender_unitaries[0]),
        receiver_generators=[generator_from_unitary(w) for w in qt.receiver_unitaries],
        mu_params=np.zeros(n - 1),
    )


def decode(params: ProtocolParameterization) -> ResourceProtocol:
    """Materialize the parameterization as a deterministic protocol."""
    u = unitary_from_generator(np.concatenate(
        [params.sender_generator[None], params.receiver_generators]))
    projections = params.projections()
    return ResourceProtocol(
        n=params.n,
        resource=AncillaResource(mu=params.mu()),
        sender_projections=projections,
        sender_unitaries=np.broadcast_to(u[0], projections.shape),
        receiver_unitaries=u[1:],
    )


def _compile_objective(ch: KrausChannel, base: ProtocolParameterization,
                       fix_mu: bool, r: ChoiMatrix | None = None):
    """The search objective over parameter vectors laid out as :func:`_pack`.

    Everything that does not depend on the point (index sets, projections,
    the pinned Schmidt vector, ``r = choi(ch)`` unless given) is built once
    here.  The returned function takes one vector, giving a float, or a
    (B, dim) stack, giving B values, and computes what
    ``target_overlap(decode(_unpack(base, theta, fix_mu)), r)`` does
    with the same arithmetic: all generators filled in one write, one batched
    ``eigh``, the same contraction and overlap.  The determinism and Schmidt
    checks of ``decode`` run batched, with the same tolerance and messages.
    """
    n, p = base.n, base.local_dim
    if ch.dim != n:
        raise ValueError(
            f"channel dim {ch.dim} does not match protocol dim {n} of the search"
        )
    d = n * p
    projections = base.projections()
    m = len(projections)
    n_gen = (1 + m) * d * d
    free_mu = not fix_mu and base.mu_fixed is None
    size = n_gen + (p - 1 if free_mu else 0)
    pinned = None if free_mu else base.mu()
    if pinned is not None:
        _check_schmidt(pinned)
    psi0 = maximally_entangled(n)
    r = choi(ch) if r is None else r

    def fun(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != size:
            raise ValueError(
                f"parameter shape {theta.shape} is not (dim,) or (B, dim), dim {size}"
            )
        stack = theta.reshape(-1, size)
        h = vec_to_hermitian(stack[:, :n_gen].reshape(len(stack), 1 + m, d * d), d)
        # h is Hermitian by construction, so the symmetrization in
        # unitary_from_generator would not change a bit of it
        vals, vecs = np.linalg.eigh(h)
        u = (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
        senders = projections @ u[:, :1]
        receivers = u[:, 1:]
        _check_determinism(senders, receivers, 1e-10)
        if free_mu:
            mu = _squared_softmax(stack[:, n_gen:])
            _check_schmidt(mu)
        else:
            mu = pinned  # broadcasts over the stack
        lam = _control_operators(mu, _blocks(senders, n, p), _blocks(receivers, n, p))
        out = _overlap(lam.reshape(len(stack), -1, n * n, n * n), r.matrix, psi0)
        return float(out[0]) if theta.ndim == 1 else out

    return fun


def objective(params: ProtocolParameterization, ch: KrausChannel) -> float:
    """Entanglement fidelity of the decoded protocol through the channel."""
    return _compile_objective(ch, params, fix_mu=False)(_pack(params, fix_mu=False))


@dataclass(frozen=True)
class OptimizationConfig:
    """Search budget and reproducibility knobs.

    ``fix_mu`` freezes the Schmidt profile at the base parameterization's
    value; the measurement structure (hence the message count) is always
    inherited from the base parameterization.
    """

    evaluation_budget: int
    restarts: int
    seed: int
    step_init: float = 0.5
    stop_delta: float = 1e-9
    step_decay: float = 0.9
    fix_mu: bool = False
    warm_start: bool = False

    def __post_init__(self):
        if self.evaluation_budget < 1:
            raise ValueError("evaluation budget must be >= 1")
        if self.restarts < 1:
            raise ValueError("restart count must be >= 1")
        if self.restarts > self.evaluation_budget // 4:
            raise ValueError(
                f"{self.restarts} restarts need an evaluation budget of at least "
                f"{4 * self.restarts} (4 per restart), got {self.evaluation_budget}"
            )


@dataclass(frozen=True)
class OptimizationResult:
    best_fidelity: float
    best_residual: float
    best_protocol: ResourceProtocol
    per_restart_bests: tuple
    evaluations_used: int
    seed: int
    budget_exhausted: bool
    restart_traces: tuple = field(repr=False, default=())


def _pack(params: ProtocolParameterization, fix_mu: bool) -> np.ndarray:
    parts = [hermitian_to_vec(params.sender_generator)]
    parts += [hermitian_to_vec(g) for g in params.receiver_generators]
    if not fix_mu and params.mu_fixed is None:
        parts.append(params.mu_params)
    return np.concatenate(parts)


def _unpack(
    base: ProtocolParameterization, theta: np.ndarray, fix_mu: bool
) -> ProtocolParameterization:
    d = base.n * base.local_dim
    n_gen = (1 + base.branch_count) * d * d
    h = vec_to_hermitian(theta[:n_gen].reshape(-1, d * d), d)
    mu_params = base.mu_params
    if not fix_mu and base.mu_fixed is None:
        mu_params = theta[n_gen:]
    return replace(base, sender_generator=h[0], receiver_generators=h[1:],
                   mu_params=mu_params)


def _ascend(fun, theta0, budget, step_init, stop_delta, decay, rng):
    """Accept-if-improve SPSA-style ascent; returns best point and trace.

    The step shrinks geometrically on rejected proposals and relaxes back
    toward its initial value on accepted ones, never exceeding it.  ``fun``
    takes a (2, dim) stack too: the two probes of each step go in one call,
    which still counts as two evaluations.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    best = fun(theta)
    evals = 1
    trace = [best]
    step = step_init
    while evals + 3 <= budget and step > stop_delta:
        delta = rng.integers(0, 2, theta.size) * 2.0 - 1.0
        up, down = fun(np.stack([theta + step * delta, theta - step * delta])).tolist()
        evals += 2
        improved = False
        grad = (up - down) / (2.0 * step) * delta
        gnorm = float(np.linalg.norm(grad))
        if gnorm > 0.0:
            candidate = theta + step * grad / gnorm
            value = fun(candidate)
            evals += 1
            if value > best:
                theta, best, improved = candidate, value, True
        if not improved and up > best:
            theta, best, improved = theta + step * delta, up, True
        if not improved and down > best:
            theta, best, improved = theta - step * delta, down, True
        step = min(step / decay, step_init) if improved else step * decay
        trace.append(best)
    hit_budget = step > stop_delta  # loop ended by evaluations, not by decay
    return best, theta, evals, trace, hit_budget


def optimize(
    ch: KrausChannel,
    base: ProtocolParameterization,
    cfg: OptimizationConfig,
) -> OptimizationResult:
    """Multi-restart ascent of the entanglement fidelity; seeded, monotone."""
    fix_mu = cfg.fix_mu
    r = choi(ch)
    fun = _compile_objective(ch, base, fix_mu, r)
    dim = _pack(base, fix_mu).size
    per_restart = cfg.evaluation_budget // cfg.restarts
    bests, thetas, traces = [], [], []
    used = 0
    any_hit_budget = False
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        if cfg.warm_start and restart == 0:
            theta0 = _pack(base, fix_mu)
        else:
            theta0 = rng.standard_normal(dim)
        best, theta, evals, trace, hit_budget = _ascend(
            fun, theta0, per_restart, cfg.step_init, cfg.stop_delta,
            cfg.step_decay, rng,
        )
        bests.append(best)
        thetas.append(theta)
        traces.append(tuple(trace))
        used += evals
        any_hit_budget = any_hit_budget or hit_budget

    winner = int(np.argmax(bests))
    best_params = _unpack(base, thetas[winner], fix_mu)
    best_protocol = decode(best_params)
    return OptimizationResult(
        best_fidelity=float(bests[winner]),
        best_residual=_residual(control_map(best_protocol, r)),
        best_protocol=best_protocol,
        per_restart_bests=tuple(float(b) for b in bests),
        evaluations_used=used,
        seed=cfg.seed,
        budget_exhausted=any_hit_budget,
        restart_traces=tuple(traces),
    )


@dataclass(frozen=True)
class SweepPoint:
    theta: float
    sum_mu: float
    best_fidelity: float
    seed: int


def sweep_mu(ch: KrausChannel, theta_grid, cfg: OptimizationConfig) -> list:
    """Best fidelity per angle, mu(theta) = (cos t, sin t), at N = ch.dim, P = 2."""
    rows = []
    for theta in theta_grid:
        theta = float(theta)
        base = zero_parameterization(
            n=ch.dim, local_dim=2, measured="full",
            mu_fixed=np.array([np.cos(theta), np.sin(theta)]),
        )
        result = optimize(ch, base, cfg)
        rows.append(
            SweepPoint(
                theta=theta,
                sum_mu=float(np.cos(theta) + np.sin(theta)),
                best_fidelity=result.best_fidelity,
                seed=cfg.seed,
            )
        )
    return rows
