"""Constrained search over parameterized protocols for a fixed channel.

Protocols are parameterized so that determinism holds by construction: the
sender applies one unitary (matrix exponential of a Hermitian generator)
followed by a complete projective measurement of the declared subsystems,
and the receiver applies one unitary per outcome.  The Schmidt profile of
the shared pair is either free (squared-softmax simplex map) or pinned.

The search itself is a derivative-free ascent: a simultaneous-perturbation
two-point gradient estimate proposes a move of the current step length, the
move is accepted only if it improves the objective, and the step decays
geometrically on rejection.  The directions are +-1, so the move is taken in
closed form, step / sqrt(dim) along +-delta by the sign of the difference,
and both candidates are known before the probe values: a speculating step
is one objective call of 4 points, and a search speculates or not
throughout.  Restarts are independent and seeded, so runs reproduce
bit-identically; they run in lockstep, one objective call per round for all
of them.  Each restart draws its random +-1 directions from its own
generator a block of DIRECTION_BLOCK steps at a time, which reads the same
stream as one draw per step.

The objective is compiled once per search (:func:`_compile_objective`): it
maps (B, dim) stacks of parameter vectors straight to fidelities with
batched array code and builds no protocol objects; only the winning point
is decoded into a :class:`ResourceProtocol`.  Per evaluation it makes few
array calls: one product of the parameters with a fixed 0/+-1 generator
map, one batched ``eigh``, the sender's branches as masked rows (the
projections are diagonal), one Gram U U^dag of every unitary, which passes
the stack when it is within DETERMINISM_TOL / (2 N P) of the identity and
otherwise hands each point in turn to the determinism check that
``decode`` runs, and the inner products G and overlap of
``target_overlap``, to whose values on decoded points it is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .channels import KrausChannel, choi
from .protocol import (
    DETERMINISM_TOL,
    AncillaResource,
    ResourceProtocol,
    _check_channel_dim,
    _check_determinism,
    _check_dims,
    _inner_products,
    _overlap,
    _residual,
    _schmidt_weights,
    basis_projections,
    control_map,
)
from .qmath import _check_size
from .teleport import qt_protocol

MEASUREMENT_CHOICES = ("none", "ancilla", "full")

# step schedule of the ascent: initial (and largest) step, the step below
# which a restart stops, and the factor a rejected move shrinks it by
STEP_INIT = 0.5
STOP_DELTA = 1e-9
STEP_DECAY = 0.9
# a search speculates (see _ascend) when its restarts hold at most this many
# parameters in all: each speculating restart adds 1 unread point to a
# round's call and saves the next call, and a point costs about in
# proportion to its parameters (measured from N = 2, P = 1 to N = P = 3:
# speculating pays up to about 200 parameters a round, breaks even near 250
# and loses from about 300)
SPECULATE_PARAMETERS = 200
# steps of +-1 directions a restart draws at once (see _directions); any
# value draws the same directions
DIRECTION_BLOCK = 32
# the largest search dimension d = N P, checked before any array is built:
# the objective keeps a map of 2 d^4 floats (_hermitian_map; 268 MB at 64)
SEARCH_DIM_MAX = 64


def _hermitian_indices(d: int) -> tuple:
    """(diag, rows, cols): the diagonal and the strict upper triangle of a
    d x d matrix."""
    return np.arange(d), *np.triu_indices(d, k=1)


def hermitian_to_vec(h: np.ndarray) -> np.ndarray:
    """Real parameter vector (length d^2) for a square, Hermitian (to 1e-10) matrix."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"generator shape {h.shape} is not square")
    dev = float(np.abs(h - h.conj().T).max(initial=0.0))
    if not dev <= 1e-10:  # true for NaN too
        raise ValueError(f"generator is not Hermitian: max |H - H^dag| = {dev:.3e}")
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
    _check_size(d, "matrix dimension d", 1)
    vec = np.asarray(vec, dtype=float)
    if vec.ndim == 0 or vec.shape[-1] != d * d:
        raise ValueError(f"parameter vector shape {vec.shape} does not end in "
                         f"d^2 = {d * d} for d = {d}")
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


def _branch_count(measured: str, n: int, p: int) -> int:
    """The sender's outcome count M; raises for any other ``measured``."""
    if measured not in MEASUREMENT_CHOICES:
        raise ValueError(f"measured must be one of {MEASUREMENT_CHOICES}, "
                         f"got {measured!r}")
    return {"none": 1, "ancilla": p, "full": n * p}[measured]


def _theta_size(n: int, p: int, measured: str, pinned: bool) -> int:
    """Length of a parameter vector: the sender's generator, then one receiver's
    per outcome, as :func:`hermitian_to_vec` lays them out, then P-1 Schmidt
    parameters unless mu is pinned; raises as :func:`_branch_count` and unless
    n lies in 1..SEARCH_DIM_MAX and p in 1..SEARCH_DIM_MAX // n."""
    _check_size(n, "system dimension n", 1, SEARCH_DIM_MAX)
    _check_size(p, "local dimension p", 1, SEARCH_DIM_MAX // n)
    m = _branch_count(measured, n, p)
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
            _schmidt_weights(mu_fixed, self.local_dim, "mu_fixed")

    @property
    def branch_count(self) -> int:
        return _branch_count(self.measured, self.n, self.local_dim)

    def projections(self) -> np.ndarray:
        """The sender's measurement: stacked computational projectors on A (x) a,
        one per outcome 0..M-1; basis state r*P + i has outcome 0 for
        ``"none"``, i for ``"ancilla"`` (it measures a only), r*P + i for
        ``"full"``."""
        states = np.arange(self.n * self.local_dim)
        return basis_projections({"none": 0 * states, "ancilla": states % self.local_dim,
                                  "full": states}[self.measured])

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
    once here.  The returned function takes a (B, dim) stack and gives B
    values, each what ``target_overlap(decode(replace(base, theta=theta)),
    r)`` gives, bit for bit, with few array calls: the finiteness check of a parameterization, all
    generators in one product with the generator map, one batched ``eigh``,
    the sender branches as masked rows of the sender unitary (the projections
    are diagonal), one batched Gram U U^dag - I, then the same inner products
    and overlap.  A Gram within ``DETERMINISM_TOL / (2d)`` passes the stack,
    since then the determinism check of ``decode`` passes each point too (see
    ``fun``); otherwise each point in turn goes to that check, which decides
    and raises with ``decode``'s messages, so both reject the same points.
    The squared softmax of finite parameters is a unit vector, unchecked.
    """
    _check_channel_dim(base.n, ch)
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
    # P_eta keeps
    row_mask = projections.diagonal(0, 1, 2)[..., None]
    gate_tol = DETERMINISM_TOL / (2 * d)  # see fun
    eye = np.eye(d, dtype=complex)  # the Gram's identity, subtracted in place

    def fun(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 2 or theta.shape[1] != size or len(theta) < 1:
            raise ValueError(f"parameter shape {theta.shape} is not (B, dim) "
                             f"with B >= 1, dim {size}")
        _check_theta(theta)
        b = len(theta)  # the stack size B
        gen = theta[:, :n_gen].reshape(b, 1 + m, d * d)
        # vec_to_hermitian's product; h is Hermitian by construction, so the
        # symmetrization in unitary_from_generator would not change a bit of it
        u = _expi((gen @ hermitian_map).view(complex).reshape(b, 1 + m, d, d))
        senders = u[:, :1] * row_mask
        receivers = u[:, 1:]
        # Every operator in u is exp(iH), so one Gram U U^dag - I decides
        # nearly every evaluation.  For a square U, U^dag U - I and U U^dag - I
        # have the same eigenvalues, so max|U^dag U - I| <= ||U U^dag - I||_2
        # <= d max|U U^dag - I|.  Sum L^dag L over the masked rows of U is
        # U^dag U, sum L L^dag is the outcome-diagonal blocks of U U^dag and
        # each W W^dag is a block of this Gram, all up to rounding near 1e-15.
        # So within gate_tol every determinism residual is at most about
        # tol/2, and _check_determinism would pass; past it (NaN too), that
        # check decides each point in turn and raises with decode's message.
        gram = u @ u.conj().swapaxes(-1, -2)
        gram -= eye
        if not np.abs(gram).max() <= gate_tol:
            for point in zip(senders, receivers):
                _check_determinism(*point)
        # a pinned mu broadcasts over the stack
        mu = _squared_softmax(theta[:, n_gen:]) if pinned is None else pinned
        return _overlap(_inner_products(mu, senders, receivers, n, p), r_matrix)

    return fun


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
        _check_size(self.evaluation_budget, "evaluation_budget", 1)
        _check_size(self.restarts, "restarts", 1)
        _check_size(self.seed, "seed", 0)
        if not isinstance(self.warm_start, (bool, np.bool_)):
            raise TypeError(f"warm_start must be a bool, got {self.warm_start!r}")
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


def _directions(rng, dim: int):
    """The ascent's +-1 directions, one row of ``dim`` per step, drawn
    ``DIRECTION_BLOCK`` rows at a time.

    These are the rows of successive ``rng.integers(0, 2, dim) * 2.0 - 1.0``
    draws: each value in [0, 2) takes one 32-bit output and range 2 never
    rejects, and the generator keeps the unused half of a 64-bit output
    between calls, so a (k, dim) draw reads what k draws of dim read, odd dim
    too.  Rows drawn past the last step are never read."""
    while True:
        yield from rng.integers(0, 2, (DIRECTION_BLOCK, dim)) * 2.0 - 1.0


def _ascend(theta, budget, rng, speculate):
    """Accept-if-improve SPSA-style ascent of one restart, as a coroutine.

    The step shrinks geometrically on rejected proposals and relaxes back
    toward its initial value on accepted ones, never exceeding it.  The
    coroutine yields each (k, dim) stack of points whose values it needs and
    is sent their k values as floats.  It returns the best value and point,
    the evaluations read, the trace of bests and whether the budget (not the
    step) ended it.  Its directions come from ``rng``, which nothing else
    draws from once it starts, a block at a time (:func:`_directions`).

    The directions are +-1, so the normalized gradient estimate is
    sign(up - down) delta / sqrt(dim): the candidate is one of two points
    known before the probe values, theta + (step / sqrt(dim)) delta or
    theta - (step / sqrt(dim)) delta, and up == down proposes none.  Every
    point of a step is a row of one broadcast, ``theta + (step * delta) *
    [[1], [-1], [shrink], [-shrink]]`` with ``shrink = 1 / sqrt(dim)``, which
    is exact for the probes (a sign flip rounds nothing and a - b is
    a + (-b)); an accepted point is taken as its row.  With ``speculate``
    each step is one stack of the probe pair and both candidates, of which it
    reads 3; without, each step is the pair, then the chosen candidate.  The
    start point goes in one stack with the first step's points.  Only the
    values read count as evaluations.
    """
    theta = np.asarray(theta, dtype=float).copy()
    shrink = 1.0 / math.sqrt(theta.size)
    moves = np.array([[1.0], [-1.0], [shrink], [-shrink]])
    asked = 4 if speculate else 2  # the rows a step asks for first
    directions = _directions(rng, theta.size)
    step, evals, trace = STEP_INIT, 1, []
    # optimize gives a restart at least 4 evaluations, so the first step runs
    while evals + 3 <= budget and step > STOP_DELTA:
        rows = theta + (step * next(directions)) * moves
        if trace:
            values = yield rows[:asked]
        else:  # the start point rides with the first step
            values = yield np.concatenate([theta[None], rows[:asked]])
            best = values.pop(0)
            trace.append(best)
        up, down = values[:2]
        evals += 2
        grown = min(step / STEP_DECAY, STEP_INIT)
        # the state the step leaves unless it accepts a candidate
        if up > best:
            kept = rows[0], up, grown
        elif down > best:
            kept = rows[1], down, grown
        else:
            kept = theta, best, step * STEP_DECAY
        if up != down:
            evals += 1
            at = 2 if up > down else 3
            if speculate:
                value = values[at]
            else:
                (value,) = yield rows[at:at + 1]
            if value > best:
                kept = rows[at], value, grown
        theta, best, step = kept
        trace.append(best)
    return best, theta, evals, tuple(trace), step > STOP_DELTA


def optimize(
    ch: KrausChannel,
    base: ProtocolParameterization,
    cfg: OptimizationConfig,
) -> OptimizationResult:
    """Multi-restart ascent of the entanglement fidelity; seeded, monotone.

    The restarts run in lockstep: each round stacks the points that every
    live restart of :func:`_ascend` waits on into one call of the compiled
    objective, and a restart leaves the rounds when its budget or its step
    runs out.  Whether they speculate is decided once per search: they do
    when the restarts hold at most ``SPECULATE_PARAMETERS`` parameters in
    all.  Each restart draws from its own ``default_rng([seed, restart])``,
    so the result equals running the restarts one by one.
    """
    r = choi(ch)
    fun = _compile_objective(ch, base)
    budget = cfg.evaluation_budget // cfg.restarts
    speculate = cfg.restarts * base.theta.size <= SPECULATE_PARAMETERS
    runs = [None] * cfg.restarts
    pending = []  # (restart, its ascent, the stack of points it waits on)
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        warm = cfg.warm_start and restart == 0
        theta0 = base.theta if warm else rng.standard_normal(base.theta.size)
        ascent = _ascend(theta0, budget, rng, speculate)
        pending.append((restart, ascent, next(ascent)))
    while pending:
        # a lone restart's stack goes in as it is: fun never writes its input
        stack = (pending[0][2] if len(pending) == 1
                 else np.concatenate([rows for _, _, rows in pending]))
        values = fun(stack).tolist()
        live, start = [], 0
        for restart, ascent, rows in pending:
            batch, start = values[start:start + len(rows)], start + len(rows)
            try:
                live.append((restart, ascent, ascent.send(batch)))
            except StopIteration as stop:
                runs[restart] = stop.value
        pending = live
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
