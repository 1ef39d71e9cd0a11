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
diagonal), and the determinism check that ``decode`` runs.  Its values are
bit-identical to decoding each point and calling ``target_overlap``.
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


def _check_dims(n: int, p: int) -> None:
    """Raise unless the system dimension N and ancilla dimension P are >= 1."""
    for name, value in (("system dimension n", n), ("local dimension p", p)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _branch_count(measured: str, n: int, p: int) -> int:
    """Outcomes of the sender's measurement: 1 for ``"none"``, P for
    ``"ancilla"``, N*P for ``"full"``; raises for any other ``measured`` and
    for dimensions below 1."""
    _check_dims(n, p)
    if measured not in MEASUREMENT_CHOICES:
        raise ValueError(
            f"measured must be one of {MEASUREMENT_CHOICES}, got {measured!r}"
        )
    return {"none": 1, "ancilla": p, "full": n * p}[measured]


@dataclass(frozen=True, eq=False)
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
        for name, dtype, shape in (("sender_generator", complex, (d, d)),
                                   ("receiver_generators", complex, (-1, d, d)),
                                   ("mu_params", float, (-1,)),
                                   ("mu_fixed", float, (-1,))):
            value = getattr(self, name)
            if value is not None:  # only mu_fixed may be None
                object.__setattr__(self, name,
                                   np.asarray(value, dtype=dtype).reshape(shape))
        if self.receiver_generators.shape[0] != count:
            raise ValueError(
                f"need {count} receiver generators for "
                f"measured={self.measured!r}, got {self.receiver_generators.shape[0]}"
            )
        if self.mu_fixed is not None:
            if self.mu_fixed.size != self.local_dim:
                raise ValueError(
                    f"mu_fixed length {self.mu_fixed.size} does not match "
                    f"local dim {self.local_dim}"
                )
            # mu() divides by the norm: it must be finite and nonzero
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(self.mu_fixed)
            if not (self.mu_fixed.min() >= 0 and 0 < norm < np.inf):
                raise ValueError(
                    "mu_fixed must be non-negative with a finite, nonzero "
                    f"norm, got {self.mu_fixed.tolist()}"
                )
        if self.mu_fixed is None and self.mu_params.size != self.local_dim - 1:
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
    _check_dims(n, n)
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


def _hermitian_map(d: int) -> np.ndarray:
    """Real (d^2, 2 d^2) map from one generator's parameters, laid out as
    :func:`hermitian_to_vec`, to the real view of its d x d matrix (real and
    imaginary parts interleaved, row-major).

    Every entry is 0 or +-1 and every output has at most one nonzero term, so
    ``(vec @ map).view(complex)`` is exactly what :func:`vec_to_hermitian`
    writes, for finite parameters.
    """
    diag, rows, cols = _hermitian_indices(d)
    split = d + rows.size  # real parts of the upper triangle end here
    upper = np.arange(rows.size)
    out = np.zeros((d * d, d, d, 2))
    out[diag, diag, diag, 0] = 1.0
    out[d + upper, rows, cols, 0] = out[d + upper, cols, rows, 0] = 1.0
    out[split + upper, rows, cols, 1] = 1.0
    out[split + upper, cols, rows, 1] = -1.0
    return out.reshape(d * d, 2 * d * d)


def _compile_objective(ch: KrausChannel, base: ProtocolParameterization,
                       r: ChoiMatrix | None = None):
    """The search objective over parameter vectors laid out as :func:`_pack`.

    Everything that does not depend on the point (the generator map, the
    sender's row mask, the pinned Schmidt vector, ``r = choi(ch)`` unless
    given) is built once here.  The returned function takes one vector,
    giving a float, or a (B, dim) stack, giving B values, and computes what
    ``target_overlap(decode(_unpack(base, theta)), r)`` does, bit for bit,
    with few array calls: all generators in one product with the generator
    map, one batched ``eigh``, the sender branches as masked rows of the
    sender unitary (the projections are diagonal), the determinism check of
    ``decode`` (same tolerance, same messages), then the same contraction and
    overlap.
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
    free_mu = base.mu_fixed is None
    size = n_gen + (p - 1 if free_mu else 0)
    pinned = None if free_mu else base.mu()
    if pinned is not None:
        _check_schmidt(pinned)
    psi0 = maximally_entangled(n)
    r_matrix = (choi(ch) if r is None else r).matrix
    hermitian_map = _hermitian_map(d)
    # the projections are diagonal 0/1, so P_eta U keeps the rows of U that
    # P_eta keeps; "none" measures nothing (P = I)
    row_mask = (None if base.measured == "none"
                else projections.diagonal(0, 1, 2)[..., None])

    def fun(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != size:
            raise ValueError(
                f"parameter shape {theta.shape} is not (dim,) or (B, dim), dim {size}"
            )
        stack = theta.reshape(-1, size)
        batch = len(stack)
        gen = stack[:, :n_gen].reshape(batch, 1 + m, d * d)
        h = (gen @ hermitian_map).view(complex).reshape(batch, 1 + m, d, d)
        # h is Hermitian by construction, so the symmetrization in
        # unitary_from_generator would not change a bit of it
        try:
            vals, vecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError:
            # a non-finite parameter times the map's zeros fills its matrix
            # with NaN; built as decode builds it, it fails as decode fails
            vals, vecs = np.linalg.eigh(vec_to_hermitian(gen, d))
        u = (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
        senders = u[:, :1] if row_mask is None else u[:, :1] * row_mask
        receivers = u[:, 1:]
        _check_determinism(senders, receivers, 1e-10)
        if free_mu:
            mu = _squared_softmax(stack[:, n_gen:])
            _check_schmidt(mu)
        else:
            mu = pinned  # broadcasts over the stack
        lam = _control_operators(mu, _blocks(senders, n, p), _blocks(receivers, n, p))
        out = _overlap(lam.reshape(batch, -1, n * n, n * n), r_matrix, psi0)
        return float(out[0]) if theta.ndim == 1 else out

    return fun


def objective(params: ProtocolParameterization, ch: KrausChannel) -> float:
    """Entanglement fidelity of the decoded protocol through the channel."""
    return _compile_objective(ch, params)(_pack(params))


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


def _pack(params: ProtocolParameterization) -> np.ndarray:
    parts = [hermitian_to_vec(params.sender_generator)]
    parts += [hermitian_to_vec(g) for g in params.receiver_generators]
    if params.mu_fixed is None:
        parts.append(params.mu_params)
    return np.concatenate(parts)


def _unpack(base: ProtocolParameterization, theta: np.ndarray) -> ProtocolParameterization:
    d = base.n * base.local_dim
    n_gen = (1 + base.branch_count) * d * d
    h = vec_to_hermitian(theta[:n_gen].reshape(-1, d * d), d)
    mu_params = theta[n_gen:] if base.mu_fixed is None else base.mu_params
    return replace(base, sender_generator=h[0], receiver_generators=h[1:],
                   mu_params=mu_params)


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
    fun = _compile_objective(ch, base, r)
    dim = _pack(base).size
    runs = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        warm = cfg.warm_start and restart == 0
        theta0 = _pack(base) if warm else rng.standard_normal(dim)
        runs.append(_ascend(fun, theta0, cfg.evaluation_budget // cfg.restarts, rng))
    bests, thetas, evals, traces, hit_budget = zip(*runs)

    winner = int(np.argmax(bests))
    best_protocol = decode(_unpack(base, thetas[winner]))
    return OptimizationResult(
        best_fidelity=bests[winner],
        best_residual=_residual(control_map(best_protocol, r)),
        best_protocol=best_protocol,
        per_restart_bests=bests,
        evaluations_used=sum(evals),
        seed=cfg.seed,
        budget_exhausted=any(hit_budget),
        restart_traces=traces,
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
