"""Reference constructions that tests compare the package against.

These build explicit permutation matrices, contract in the plainest form or
run a search one restart at a time; no path in the package needs them.
"""

import math

import numpy as np

from teleportlab.optimize import STEP_DECAY, STEP_INIT, STOP_DELTA
from teleportlab.protocol import _inner_products, block_operators
from teleportlab.qmath import (_check_tol, dagger, embed_operator, factor_permutation,
                               maximally_entangled, partial_trace, projector)


def swap_matrix(dim_a: int, dim_b: int):
    """Unitary exchanging the two factors of an a (x) b product space."""
    return factor_permutation((dim_a, dim_b), (1, 0))


def choi_kron_reference(kraus: np.ndarray) -> np.ndarray:
    """The Choi state of an (E, N, N) Kraus stack as the per-operator Kronecker
    sum sum_e (K_e (x) I)|psi_0><psi_0|(K_e (x) I)^dag."""
    n = kraus.shape[-1]
    eye = np.eye(n)
    psi0 = projector(maximally_entangled(n))
    return sum(np.kron(k, eye) @ psi0 @ np.kron(k, eye).conj().T for k in kraus)


def tp_sum_reference(kraus: np.ndarray) -> np.ndarray:
    """sum_e K_e^dag K_e of an (E, N, N) Kraus stack, one operator at a time."""
    return sum(dagger(k) @ k for k in kraus)


def check_state_reference(matrix: np.ndarray, what: str, tol: float) -> None:
    """The state check in its plain form, through the np.* wrappers: raise
    ValueError unless the square complex ``matrix`` is a state: finite,
    Hermitian, positive semidefinite and of trace 1, each within ``tol`` and
    checked in that order; the message starts with ``what``."""
    _check_tol(tol)
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{what} has non-finite entries")
    adjoint = dagger(matrix)
    herm_dev = float(np.max(np.abs(matrix - adjoint)))
    if herm_dev > tol:
        raise ValueError(f"{what} not Hermitian: deviation {herm_dev:.3e}")
    min_val = np.linalg.eigvalsh((matrix + adjoint) / 2.0)[0]
    if min_val < -tol:
        raise ValueError(
            f"{what} not positive semidefinite: min eigenvalue {min_val:.3e}"
        )
    trace_dev = abs(float(np.trace(matrix).real) - 1.0)
    if trace_dev > tol:
        raise ValueError(f"{what} trace deviates from 1 by {trace_dev:.3e}")


def choi_check_reference(matrix: np.ndarray, tol: float) -> None:
    """The Choi state check in its plain form: N from a d x d shape with
    d = N^2, the state check, then the input marginal against I/N, built
    with np.eye."""
    d = matrix.shape[0] if matrix.ndim == 2 else 0
    n = round(d ** 0.5)
    if d == 0 or n * n != d or matrix.shape != (d, d):
        raise ValueError(f"Choi matrix shape {matrix.shape} is not "
                         "N^2 x N^2 for an integer N >= 1")
    check_state_reference(matrix, "Choi matrix", tol)
    marginal = matrix.reshape((n,) * 4).trace(axis1=0, axis2=2)
    marg_dev = float(np.max(np.abs(marginal - np.eye(n) / n)))
    if marg_dev > tol:
        raise ValueError(
            "Choi input marginal deviates from I/N "
            f"(map not trace-preserving) by {marg_dev:.3e}"
        )


def simulate_reference(proto, ch, rho):
    """The protocol run in the plainest form, as (output on B (x) R, branch
    probabilities): rho on A (x) R times the pair on a (x) b, each branch L_m
    on A (x) a, a traced out, the Kraus channel on A, W_m on A (x) b (A now
    the receiver's B) and b traced out, the branches summed; a branch's
    probability is the trace of its state before the channel."""
    n, p = proto.n, proto.local_dim
    r = len(rho) // n
    pair = proto.resource.state()
    state = np.kron(rho, np.outer(pair, pair.conj()))
    kraus = [embed_operator(k, (n, r, p), [0]) for k in ch.kraus]
    out = np.zeros((n * r, n * r), dtype=complex)
    probs = []
    for op, w in zip(proto.branches, proto.receiver_unitaries):
        big = embed_operator(op, (n, r, p, p), [0, 2])
        sent = partial_trace(big @ state @ big.conj().T, (n, r, p, p), keep=(0, 1, 3))
        probs.append(np.trace(sent).real)
        sent = sum(k @ sent @ k.conj().T for k in kraus)
        big = embed_operator(w, (n, r, p), [0, 2])
        out += partial_trace(big @ sent @ big.conj().T, (n, r, p), keep=(0, 1))
    return out, np.array(probs)


def reference_leg_run(proto, ch, rho):
    """The protocol's end-to-end map run on rho on A (x) R, R a passive
    reference leg, as an output on B (x) R: the map, rows (o, o') and
    columns A's legs (X, X'), times rho relaid as an (N^2, R^2) matrix whose
    columns are R's legs.  On |psi_0><psi_0| it is the product of the map
    with (1/N) I, which :func:`teleportlab.protocol.effective_choi` must
    match bit for bit."""
    n = proto.n
    r = len(rho) // n
    legs = rho.reshape(n, r, n, r).transpose(0, 2, 1, 3).reshape(n * n, r * r)
    t = (proto._process_matrix @ ch.choi_state.matrix.ravel()).reshape(n * n, n * n)
    out = (t @ legs).reshape(n, n, r, r).transpose(0, 2, 1, 3)
    return out.reshape(n * r, n * r)


def lambda_reference(proto):
    """Control operators sum_i mu_i B[k,i] (x) A[l,i]^T by one three-operand
    einsum over the blocks, as an (M, P, P, N^2, N^2) array."""
    a, b = block_operators(proto)
    ops = np.einsum("i,ekibc,elida->eklbacd", proto.resource.mu, b, a)
    m, p, _, n, _, _, _ = ops.shape
    return ops.reshape(m, p, p, n * n, n * n)


def control_map_reference(proto, r):
    """sum_j Lambda_j R Lambda_j^dag over the control operators of
    :func:`lambda_reference` by two GEMMs, an (N^2, N^2) matrix: the
    operators side by side as rows times R, then times the rows' adjoint."""
    nn = proto.n * proto.n
    rows = lambda_reference(proto).transpose(3, 0, 1, 2, 4).reshape(nn, -1)
    return (rows.reshape(-1, nn) @ r.matrix).reshape(nn, -1) @ rows.conj().T


def proof_numbers_reference(proto):
    """The numbers :func:`teleportlab.theorem.proof_report` reads of the
    protocol, by the block route and from a freshly built G: the relation-13
    residual from the determinism Gram matrices of the operators rebuilt out
    of :func:`block_operators` (their transpose undone), the Cauchy-Schwarz
    violation from block einsums, the branch scalars (the G average over
    the min(N, P)^2 index-matched tuples) and, for M = 1, the contradiction
    sum (None otherwise)."""
    n, p, mu = proto.n, proto.local_dim, proto.resource.mu
    a, b = block_operators(proto)
    ops, recv = (x.transpose(0, 3, 1, 4, 2).reshape(len(x), n * p, n * p)
                 for x in (a, b))
    column = ops.reshape(-1, n * p)
    row = ops.swapaxes(0, 1).reshape(n * p, -1)
    gram = np.concatenate([(column.conj().T @ column)[None],
                           (row @ row.conj().T)[None],
                           recv @ recv.conj().swapaxes(-1, -2)])
    r13 = float(np.abs(gram - np.eye(n * p)).max())
    g = _inner_products(mu, proto.branches, proto.receiver_unitaries, n, p)
    prod_a = np.einsum("i,elinj->eln", mu, np.abs(a) ** 2)
    prod_b = np.einsum("p,ekpqm->ekm", mu, np.abs(b) ** 2)
    cs = float(np.max(np.abs(g) ** 2 - np.einsum("eln,ekm->eklnm", prod_a, prod_b)))
    q = min(n, p)
    betas = np.einsum("ekllk->e", g[:, :q, :q, :q, :q]) / (np.sqrt(n) * q * q)
    lhs = None
    if proto.m == 1:
        lhs = float(np.mean(np.sum(np.abs(g[0]) ** 2, axis=(0, 1, 2))))
    return r13, cs, betas, lhs


def ascend_reference(fun, theta0, budget, rng):
    """Accept-if-improve SPSA-style ascent; returns best point and trace.

    The step shrinks geometrically on rejected proposals and relaxes back
    toward its initial value on accepted ones, never exceeding it.  ``fun``
    takes a (2, dim) stack too: the two probes of each step go in one call,
    which still counts as two evaluations.  The probes are built in one
    broadcast, ``theta + (step * delta) * [[1], [-1]]``, which is exact (a
    sign flip rounds nothing and a - b is a + (-b)), and an accepted probe is
    taken as its row.  The directions are +-1, so the step along the
    normalized gradient estimate, step (up - down) delta / |(up - down) delta|,
    is taken in closed form, ``(step * delta) * (+-shrink)`` with
    ``shrink = 1 / sqrt(dim)``; up == down proposes no candidate.
    """
    signs = np.array([[1.0], [-1.0]])
    theta = np.asarray(theta0, dtype=float).copy()
    shrink = 1.0 / math.sqrt(theta.size)
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
        if up != down:
            candidate = theta + (step * delta) * (shrink if up > down else -shrink)
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
