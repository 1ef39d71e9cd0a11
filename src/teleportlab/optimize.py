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
builds no protocol objects; only the winning point is decoded into a
:class:`ResourceProtocol`.  Per evaluation it makes few array calls: one
product of the parameters with a fixed 0/+-1 generator map, one batched
``eigh``, the sender's branches as masked rows (the projections are
diagonal), the determinism check that ``decode`` runs, and the inner
products G and overlap of ``target_overlap``, to whose values on decoded
points it is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .channels import KrausChannel, choi
from .protocol import (
    AncillaResource,
    ResourceProtocol,
    _check_channel_dim,
    _check_determinism,
    _check_dims,
    _inner_products,
    _overlap,
    _residual,
    basis_projections,
    control_map,
)
from .teleport import qt_protocol

MEASUREMENT_CHOICES = ("none", "ancilla", "full")

# step schedule of the ascent: initial (and largest) step, the step below
# which a restart stops, and the factor a rejected move shrinks it by
STEP_INIT = 0.5
STOP_DELTA = 1e-9
STEP_DECAY = 0.9


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


@lru_cache(maxsize=None)
def _hermitian_map(d: int) -> np.ndarray:
    """Real (d^2, 2 d^2) map from one generator's parameters, laid out as
    :func:`hermitian_to_vec`, to the real view of its d x d matrix (real and
    imaginary parts interleaved, row-major); read-only (the cache shares it).

    Every entry is 0 or +-1 and every output has at most one nonzero term, so
    the product with finite parameters is exact.
    """
    diag, rows, cols = _hermitian_indices(d)
    split = d + rows.size  # real parts of the upper triangle end here
    upper = np.arange(rows.size)
    out = np.zeros((d * d, d, d, 2))
    out[diag, diag, diag, 0] = 1.0
    out[d + upper, rows, cols, 0] = out[d + upper, cols, rows, 0] = 1.0
    out[split + upper, rows, cols, 1] = 1.0
    out[split + upper, cols, rows, 1] = -1.0
    out.flags.writeable = False  # and so is the reshaped view
    return out.reshape(d * d, 2 * d * d)


def vec_to_hermitian(vec: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_vec`; a (..., d^2) stack of vectors
    gives a (..., d, d) stack of matrices (all NaN for a non-finite vector)."""
    vec = np.asarray(vec, dtype=float)
    return (vec @ _hermitian_map(d)).view(complex).reshape(vec.shape[:-1] + (d, d))


def _expi(h: np.ndarray) -> np.ndarray:
    """exp(i H) for a (..., d, d) stack of Hermitian H, via ``eigh``."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def unitary_from_generator(h: np.ndarray) -> np.ndarray:
    """exp(i H) for Hermitian H, via the eigendecomposition; a (..., d, d)
    stack of generators gives a stack of unitaries."""
    h = np.asarray(h, dtype=complex)
    return _expi((h + h.conj().swapaxes(-1, -2)) / 2.0)


def _squared_softmax(params: np.ndarray) -> np.ndarray:
    """Schmidt vector(s) from P-1 free parameters per row (last logit pinned at 0)."""
    z = np.concatenate([params, np.zeros(params.shape[:-1] + (1,))], axis=-1)
    z = z - z.max(axis=-1, keepdims=True)
    weights = np.exp(z)
    return np.sqrt(weights / weights.sum(axis=-1, keepdims=True))


def generator_from_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian H with exp(i H) = U, phases taken in (-pi, pi]."""
    import scipy.linalg

    t, q = scipy.linalg.schur(np.asarray(u, dtype=complex), output="complex")
    phases = np.angle(np.diagonal(t))
    h = (q * phases) @ q.conj().T
    return (h + h.conj().T) / 2.0


def _outcome_labels(measured: str, n: int, p: int) -> np.ndarray:
    """The sender's outcome for each computational basis state r*P + i of
    A (x) a: 0 for ``"none"``, i for ``"ancilla"`` (it measures a only), the
    state itself for ``"full"``; raises for any other ``measured`` and for
    dimensions below 1."""
    _check_dims(n, p)
    if measured not in MEASUREMENT_CHOICES:
        raise ValueError(
            f"measured must be one of {MEASUREMENT_CHOICES}, got {measured!r}"
        )
    states = np.arange(n * p)
    return {"none": 0 * states, "ancilla": states % p, "full": states}[measured]


def _theta_size(n: int, p: int, measured: str, pinned: bool) -> int:
    """Length of a parameter vector: the sender's generator, then one receiver's
    per outcome, as :func:`hermitian_to_vec` lays them out, then P-1 Schmidt
    parameters unless mu is pinned; raises as :func:`_outcome_labels`."""
    m = int(_outcome_labels(measured, n, p).max()) + 1
    return (1 + m) * (n * p) ** 2 + (0 if pinned else p - 1)


def _check_theta(theta: np.ndarray) -> None:
    """Raise unless every parameter of a vector or (B, dim) stack is finite."""
    finite = np.isfinite(theta)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0])
        raise ValueError(f"theta must be finite, got {theta[bad]} at index {bad[-1]}")


@dataclass(frozen=True, eq=False)
class ProtocolParameterization:
    """Point in protocol space: the structure (dimensions, measurement, a pinned
    Schmidt profile ``mu_fixed``) and one real parameter vector ``theta``, laid
    out as :func:`_theta_size` counts it; both arrays are owned, read-only copies."""

    n: int
    local_dim: int
    measured: str
    theta: np.ndarray
    mu_fixed: np.ndarray | None = None

    def __post_init__(self):
        pinned = self.mu_fixed is not None
        size = _theta_size(self.n, self.local_dim, self.measured, pinned)
        theta = np.array(self.theta, dtype=float).reshape(-1)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        if theta.size != size:
            raise ValueError(
                f"theta must hold {size} parameters for n={self.n}, "
                f"p={self.local_dim}, measured={self.measured!r}, "
                f"mu {'pinned' if pinned else 'free'}; got {theta.size}"
            )
        _check_theta(theta)
        if pinned:
            mu_fixed = np.array(self.mu_fixed, dtype=float).reshape(-1)
            mu_fixed.flags.writeable = False
            object.__setattr__(self, "mu_fixed", mu_fixed)
            if mu_fixed.size != self.local_dim:
                raise ValueError(
                    f"mu_fixed length {mu_fixed.size} does not match "
                    f"local dim {self.local_dim}"
                )
            # mu() divides by the norm: it must be finite and nonzero, and
            # the quotient a unit vector (a subnormal norm is rounded)
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(mu_fixed)
            if not (mu_fixed.min() >= 0 and 0 < norm < np.inf
                    and abs((self.mu() ** 2).sum() - 1.0) <= 1e-10):
                raise ValueError(
                    "mu_fixed must be non-negative with a finite, nonzero "
                    f"norm, got {mu_fixed.tolist()}"
                )

    @property
    def branch_count(self) -> int:
        return len(self.projections())

    def projections(self) -> np.ndarray:
        """The sender's measurement: stacked computational projectors on A (x) a,
        one per outcome of :func:`_outcome_labels` (``"ancilla"``'s interleave)."""
        return basis_projections(_outcome_labels(self.measured, self.n, self.local_dim))

    def generators(self) -> np.ndarray:
        """The (1+M, d, d) Hermitian generators: the sender's, then each
        receiver's."""
        d = self.n * self.local_dim
        n_gen = (1 + self.branch_count) * d * d
        return vec_to_hermitian(self.theta[:n_gen].reshape(-1, d * d), d)

    def mu(self) -> np.ndarray:
        """Schmidt coefficients: pinned vector, or squared-softmax of the
        tail of theta."""
        if self.mu_fixed is not None:
            return self.mu_fixed / np.linalg.norm(self.mu_fixed)
        return _squared_softmax(self.theta[self.theta.size - self.local_dim + 1:])


def zero_parameterization(
    n: int,
    local_dim: int,
    measured: str,
    mu_fixed=None,
) -> ProtocolParameterization:
    """All-zero generators and flat mu; decodes to identity operations."""
    size = _theta_size(n, local_dim, measured, mu_fixed is not None)
    return ProtocolParameterization(n, local_dim, measured, np.zeros(size), mu_fixed)


def qt_parameterization(n: int) -> ProtocolParameterization:
    """Generators whose decoded protocol is the teleportation protocol."""
    _check_dims(n, n)
    qt = qt_protocol(n)
    unitaries = [qt.sender_unitaries[0], *qt.receiver_unitaries]
    theta = np.concatenate([hermitian_to_vec(generator_from_unitary(u))
                            for u in unitaries] + [np.zeros(n - 1)])
    return ProtocolParameterization(n, n, "full", theta)


def decode(params: ProtocolParameterization) -> ResourceProtocol:
    """Materialize the parameterization as a deterministic protocol."""
    u = unitary_from_generator(params.generators())
    projections = params.projections()
    return ResourceProtocol(
        n=params.n,
        resource=AncillaResource(mu=params.mu()),
        sender_projections=projections,
        sender_unitaries=np.broadcast_to(u[0], projections.shape),
        receiver_unitaries=u[1:],
    )


def _compile_objective(ch: KrausChannel, base: ProtocolParameterization):
    """The search objective over parameter vectors laid out as ``base.theta``.

    Everything that does not depend on the point (the generator map, the
    sender's row mask, the pinned Schmidt vector, ``r = choi(ch)``) is built
    once here.  The returned function takes one vector, giving a float, or a
    (B, dim) stack, giving B values, and computes what
    ``target_overlap(decode(replace(base, theta=theta)), r)`` does, bit for bit,
    with few array calls: the finiteness check of a parameterization, all
    generators in one product with the generator map, one batched ``eigh``,
    the sender branches as masked rows of the sender unitary (the projections
    are diagonal), the determinism check of ``decode`` (same tolerance, same
    messages), then the same inner products and overlap.  The Schmidt vector
    needs no check: the squared softmax of finite parameters is a unit vector.
    """
    _check_channel_dim(base, ch)
    n, p = base.n, base.local_dim
    d = n * p
    projections = base.projections()
    m = len(projections)
    n_gen = (1 + m) * d * d
    size = base.theta.size
    pinned = None if base.mu_fixed is None else base.mu()
    r_matrix = choi(ch).matrix
    hermitian_map = _hermitian_map(d)
    # the projections are diagonal 0/1, so P_eta U keeps the rows of U that
    # P_eta keeps; a single outcome measures nothing (P = I)
    row_mask = None if m == 1 else projections.diagonal(0, 1, 2)[..., None]

    def fun(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != size:
            raise ValueError(
                f"parameter shape {theta.shape} is not (dim,) or (B, dim), dim {size}"
            )
        stack = theta.reshape(-1, size)
        _check_theta(stack)
        gen = stack[:, :n_gen].reshape(-1, 1 + m, d * d)
        # vec_to_hermitian's product; h is Hermitian by construction, so the
        # symmetrization in unitary_from_generator would not change a bit of it
        u = _expi((gen @ hermitian_map).view(complex).reshape(-1, 1 + m, d, d))
        senders = u[:, :1] if row_mask is None else u[:, :1] * row_mask
        receivers = u[:, 1:]
        _check_determinism(senders, receivers, 1e-10)
        # a pinned mu broadcasts over the stack
        mu = _squared_softmax(stack[:, n_gen:]) if pinned is None else pinned
        out = _overlap(_inner_products(mu, senders, receivers, n, p), r_matrix)
        return float(out[0]) if theta.ndim == 1 else out

    return fun


def objective(params: ProtocolParameterization, ch: KrausChannel) -> float:
    """Entanglement fidelity of the decoded protocol through the channel."""
    return _compile_objective(ch, params)(params.theta)


@dataclass(frozen=True)
class OptimizationConfig:
    """Search budget and reproducibility knobs.

    The measurement structure (hence the message count) and a pinned
    Schmidt profile (``mu_fixed``) come from the base parameterization;
    ``warm_start`` starts restart 0 at the base point instead of a random one.
    """

    evaluation_budget: int
    restarts: int
    seed: int
    warm_start: bool = False

    def __post_init__(self):
        if self.evaluation_budget < 1:
            raise ValueError("evaluation budget must be >= 1")
        if self.restarts < 1:
            raise ValueError("restart count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    budget_exhausted: bool
    restart_traces: tuple = field(repr=False, default=())


def _ascend(fun, theta0, budget, rng):
    """Accept-if-improve SPSA-style ascent; returns best point and trace.

    The step shrinks geometrically on rejected proposals and relaxes back
    toward its initial value on accepted ones, never exceeding it.  ``fun``
    takes a (2, dim) stack too: the two probes of each step go in one call,
    which still counts as two evaluations.  The probes are built in one
    broadcast, ``theta + (step * delta) * [[1], [-1]]``, which is exact (a
    sign flip rounds nothing and a - b is a + (-b)), and an accepted probe is
    taken as its row.
    """
    signs = np.array([[1.0], [-1.0]])
    theta = np.asarray(theta0, dtype=float).copy()
    best = fun(theta)
    evals = 1
    trace = [best]
    step = STEP_INIT
    while evals + 3 <= budget and step > STOP_DELTA:
        delta = rng.integers(0, 2, theta.size) * 2.0 - 1.0
        probes = theta + (step * delta) * signs
        up, down = fun(probes).tolist()
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
            theta, best, improved = probes[0], up, True
        if not improved and down > best:
            theta, best, improved = probes[1], down, True
        step = min(step / STEP_DECAY, STEP_INIT) if improved else step * STEP_DECAY
        trace.append(best)
    hit_budget = step > STOP_DELTA  # loop ended by evaluations, not by decay
    return best, theta, evals, tuple(trace), hit_budget


def optimize(
    ch: KrausChannel,
    base: ProtocolParameterization,
    cfg: OptimizationConfig,
) -> OptimizationResult:
    """Multi-restart ascent of the entanglement fidelity; seeded, monotone."""
    r = choi(ch)
    fun = _compile_objective(ch, base)
    dim = base.theta.size
    runs = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        warm = cfg.warm_start and restart == 0
        theta0 = base.theta if warm else rng.standard_normal(dim)
        runs.append(_ascend(fun, theta0, cfg.evaluation_budget // cfg.restarts, rng))
    bests, thetas, evals, traces, hit_budget = zip(*runs)

    winner = int(np.argmax(bests))
    best_protocol = decode(replace(base, theta=thetas[winner]))
    return OptimizationResult(
        best_fidelity=bests[winner],
        best_residual=_residual(control_map(best_protocol, r)),
        best_protocol=best_protocol,
        per_restart_bests=bests,
        evaluations_used=sum(evals),
        budget_exhausted=any(hit_budget),
        restart_traces=traces,
    )


def sweep_mu(ch: KrausChannel, theta_grid, cfg: OptimizationConfig) -> list:
    """Best fidelity per angle, mu(theta) = (cos t, sin t), at N = ch.dim, P = 2,
    as (theta, sum of mu, best fidelity) tuples; every angle must lie in
    [0, pi/2]."""
    grid = [float(theta) for theta in theta_grid]
    for theta in grid:
        if not 0 <= theta <= np.pi / 2:  # NaN fails too
            raise ValueError(f"sweep angle {theta} is not in [0, pi/2]")
    rows = []
    for theta in grid:
        mu = np.array([np.cos(theta), np.sin(theta)])
        base = zero_parameterization(ch.dim, 2, "full", mu_fixed=mu)
        best = optimize(ch, base, cfg).best_fidelity
        rows.append((theta, float(mu.sum()), best))
    return rows
