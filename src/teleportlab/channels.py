"""Quantum channels in Kraus and Choi form, with constructors and file IO.

Conventions used everywhere in this package:

* Choi matrices are normalized to trace 1 (built from the normalized
  maximally entangled state, not the unnormalized one of trace N).  Many
  references use trace N instead; conversion factors live only here.
* Choi index ordering is output (x) input, i.e. the channel acts on the
  first tensor factor, and helpers never reorder silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .qmath import (
    _operator_stack,
    dagger,
    fix_global_phase,
    matrix_from_pairs,
    matrix_to_pairs,
    maximally_entangled,
    partial_trace,
    projector,
)

LOCC_SIMULABLE_THRESHOLD = 2.0 / 3.0


def _tp_deviation(kraus: np.ndarray) -> float:
    """Largest entry of |sum_e K_e^dag K_e - I| for an (E, N, N) Kraus stack."""
    total = sum(dagger(k) @ k for k in kraus)
    return float(np.max(np.abs(total - np.eye(kraus.shape[-1]))))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map; ``kraus`` is a read-only
    (E, N, N) stack of the Kraus operators."""

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValueError("channel needs at least one Kraus operator")
        kraus = _operator_stack(self.kraus, self.dim, "Kraus operator",
                                f"dim {self.dim}")
        object.__setattr__(self, "kraus", kraus)
        if not np.all(np.isfinite(kraus)):
            raise ValueError("Kraus operator has non-finite entries")
        dev = _tp_deviation(kraus)
        if dev > 1e-10:
            raise ValueError(
                f"channel not trace-preserving: sum K^dag K deviates from I by {dev:.3e}"
            )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel action sum_k K rho K^dag."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(
                f"state shape {rho.shape} does not match channel dim {self.dim}"
            )
        return sum(k @ rho @ dagger(k) for k in self.kraus)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Trace-1 Choi state on the output (x) input space, eigensystem cached."""

    dim_out: int
    dim_in: int
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, dim_out: int, dim_in: int,
                    tol: float = 1e-10) -> "ChoiMatrix":
        """Validate invariants, cache the eigensystem, and wrap the matrix."""
        matrix = np.asarray(matrix, dtype=complex)
        d = dim_out * dim_in
        if matrix.shape != (d, d):
            raise ValueError(
                f"Choi matrix shape {matrix.shape} does not match dims "
                f"{dim_out}x{dim_in}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("Choi matrix has non-finite entries")
        herm_dev = float(np.max(np.abs(matrix - dagger(matrix))))
        if herm_dev > tol:
            raise ValueError(f"Choi matrix not Hermitian: deviation {herm_dev:.3e}")
        vals, vecs = np.linalg.eigh((matrix + dagger(matrix)) / 2.0)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        if vals[-1] < -tol:
            raise ValueError(
                f"Choi matrix not positive semidefinite: min eigenvalue {vals[-1]:.3e}"
            )
        trace_dev = abs(float(np.trace(matrix).real) - 1.0)
        if trace_dev > tol:
            raise ValueError(f"Choi matrix trace deviates from 1 by {trace_dev:.3e}")
        marginal = partial_trace(matrix, (dim_out, dim_in), keep=1)
        marg_dev = float(np.max(np.abs(marginal - np.eye(dim_in) / dim_in)))
        if marg_dev > tol:
            raise ValueError(
                "Choi input marginal deviates from I/N "
                f"(map not trace-preserving) by {marg_dev:.3e}"
            )
        return cls(dim_out=dim_out, dim_in=dim_in, matrix=matrix,
                   eigenvalues=vals, eigenvectors=vecs)


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi state of a channel: (channel (x) id) applied to |psi_0><psi_0|."""
    n = ch.dim
    psi0 = projector(maximally_entangled(n))
    # all K_e (x) I at once, entry for entry what np.kron gives, so the sum
    # is bit-identical to adding the operators' terms one at a time
    k = ch.kraus
    kk = (k[:, :, None, :, None] * np.eye(n)[:, None, :]).reshape(-1, n * n, n * n)
    mat = (kk @ psi0 @ kk.conj().swapaxes(-1, -2)).sum(axis=0)
    return ChoiMatrix.from_matrix(mat, dim_out=n, dim_in=n)


def _rank(eigenvalues: np.ndarray, tol: float) -> int:
    """Count of descending eigenvalues above tol relative to the largest."""
    return int(np.sum(eigenvalues > tol * eigenvalues[0]))


def rank(ch: KrausChannel, tol: float = 1e-10) -> int:
    """Channel rank: Choi eigenvalues above tol relative to the largest."""
    return _rank(choi(ch).eigenvalues, tol)


def kraus_from_choi(c: ChoiMatrix, tol: float = 1e-10) -> KrausChannel:
    """Canonical Kraus operators from the scaled Choi eigenvectors.

    Operators are ordered by descending eigenvalue and phase-fixed so the
    largest-magnitude entry of each is real non-negative.
    """
    if c.dim_out != c.dim_in:
        raise ValueError("only square channels are supported")
    n = c.dim_out
    keep = c.eigenvalues > tol * c.eigenvalues[0]
    ops = [fix_global_phase(np.sqrt(n * val) * vec).reshape(n, n)
           for val, vec in zip(c.eigenvalues[keep], c.eigenvectors.T[keep])]
    return KrausChannel(dim=n, kraus=ops)


def _superoperator(ch: KrausChannel) -> np.ndarray:
    """S[i, j, k, l] = sum_e K_e[i, k] conj(K_e[j, l]), the channel acting on a
    (row, column) leg pair."""
    return np.einsum("eik,ejl->ijkl", ch.kraus, ch.kraus.conj())


def apply_on_factor(ch: KrausChannel, rho: np.ndarray, dims, which: int) -> np.ndarray:
    """Apply the channel to one tensor factor of a multipartite state."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= which < len(dims):
        raise ValueError(f"factor index {which} out of range for {len(dims)} factors")
    if dims[which] != ch.dim:
        raise ValueError(
            f"factor {which} has dim {dims[which]} but channel dim is {ch.dim}"
        )
    total = int(np.prod(dims))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (total, total):
        raise ValueError(f"state shape {rho.shape} does not match factor dims {dims}")
    # the channel, as one superoperator, on factor `which`'s row and column legs
    legs = (which, len(dims) + which)
    out = np.tensordot(_superoperator(ch), rho.reshape(dims * 2), axes=([2, 3], legs))
    return np.moveaxis(out, (0, 1), legs).reshape(total, total)


def _simulate(rho, resource, branches, ch: KrausChannel, receivers):
    """Run a one-way protocol around one use of the channel by contraction.

    ``rho`` lives on A (x) R (R a passive reference leg), ``resource`` on
    a (x) b, the M ``branches`` on A (x) a and the M ``receivers`` on
    channel-output (x) b.  a is traced out once the branch is applied, so the
    channel and receivers act on (A, b).  Returns the output on B (x) R and
    the branch probabilities.

    Each contraction is one GEMM, or one matmul batched over the branches,
    on transposed and reshaped copies, so BLAS does the arithmetic: the
    branch with a traced out, the channel as an N^2 x N^2 superoperator on
    the two A legs, the receivers, and the trace over b, summed over the
    branches in the same product.
    """
    if not np.all(np.isfinite(rho)):
        raise ValueError("input state has non-finite entries")
    n = ch.dim
    m, d, _ = branches.shape
    p, r = d // n, len(rho) // n
    # f[m, a', (A' b), A] = sum_a <A' a'| L_m |A a> resource[a, b]
    f = np.tensordot(branches.reshape(m, n, p, n, p), resource.reshape(p, p),
                     axes=(4, 0))
    f = f.transpose(0, 2, 1, 4, 3).reshape(m, p, d, n)
    # u[m, a'] = (f[m, a'] (x) I_R) rho, axes [m, a', (A' b), R, A, S]
    u = (f.reshape(m * p * d, n) @ rho.reshape(n, r * n * r)).reshape(m, p, d, r, n, r)
    # y[m] = sum over a' of u[m, a'] (f[m, a'] (x) I_R)^dag, axes [m, A, b, R, S, A', b']
    y = np.matmul(u.transpose(0, 2, 3, 5, 1, 4).reshape(m, d * r * r, p * n),
                  f.conj().transpose(0, 1, 3, 2).reshape(m, p * n, d))
    y = y.reshape(m, n, p, r, r, n, p)
    probs = np.einsum("mabrrab->m", y).real
    # the channel on the two A legs, then back to [m, (B b), (R S B' b')]
    y = (_superoperator(ch).reshape(n * n, n * n)
         @ y.transpose(1, 5, 0, 2, 3, 4, 6).reshape(n * n, -1))
    y = y.reshape(n, n, m, p, r, r, p).transpose(2, 0, 3, 4, 5, 1, 6)
    # q[m] = W_m y[m]; out[B R, B' S] = sum over m, b and (B'' b'') of
    # q[m, (B b), R, S, (B'' b'')] conj(W_m[(B' b), (B'' b'')])
    q = np.matmul(receivers, y.reshape(m, d, r * r * d)).reshape(m, n, p, r, r, d)
    w = receivers.reshape(m, n, p, d).conj().transpose(0, 2, 3, 1).reshape(-1, n)
    out = q.transpose(1, 3, 4, 0, 2, 5).reshape(n * r * r, m * p * d) @ w
    return out.reshape(n, r, r, n).transpose(0, 1, 3, 2).reshape(n * r, n * r), probs


def identity_channel(n: int) -> KrausChannel:
    """The noiseless channel on an n-level system."""
    return KrausChannel(dim=n, kraus=np.eye(n, dtype=complex)[None])


def weyl_operator(n: int, shift_phase: int, shift: int) -> np.ndarray:
    """Generalized Pauli W: |k> -> exp(2 pi i k p / n) |k + s mod n>."""
    w = np.zeros((n, n), dtype=complex)
    for k in range(n):
        w[(k + shift) % n, k] = np.exp(2j * np.pi * k * shift_phase / n)
    return w


def depolarizing(p: float, n: int = 2) -> KrausChannel:
    """Depolarizing channel rho -> p I/N + (1-p) rho on an N-level system."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {p}")
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    ops = [np.sqrt(1.0 - p + p / n**2) * np.eye(n, dtype=complex)]
    scale = np.sqrt(p) / n
    for a in range(n):
        for b in range(n):
            if a == 0 and b == 0:
                continue
            ops.append(scale * weyl_operator(n, a, b))
    return KrausChannel(dim=n, kraus=ops)


def random_channel(n: int, target_rank: int, seed) -> KrausChannel:
    """Random channel of the requested Choi rank via a Haar-random isometry.

    The isometry maps the system into system (x) environment with environment
    dimension equal to the requested rank; deterministic per seed.
    """
    if not 1 <= target_rank <= n * n:
        raise ValueError(f"rank must lie in 1..{n * n}, got {target_rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n * target_rank, n)) + 1j * rng.standard_normal(
        (n * target_rank, n)
    )
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    isometry = (q * phases).reshape(n, target_rank, n)
    return KrausChannel(dim=n, kraus=isometry.transpose(1, 0, 2))


def depolarizing_locc_simulable(p: float) -> bool:
    """Whether the qubit depolarizing channel is LOCC-simulable (p >= 2/3)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {p}")
    return p >= LOCC_SIMULABLE_THRESHOLD


def channel_to_dict(ch: KrausChannel) -> dict:
    """JSON-ready form: {"dim": N, "kraus": [matrix, ...]}, entries [re, im]."""
    return {"dim": ch.dim, "kraus": [matrix_to_pairs(k) for k in ch.kraus]}


def channel_from_dict(data: dict) -> KrausChannel:
    """Build and validate a channel from its JSON form."""
    if not isinstance(data, dict) or "dim" not in data or "kraus" not in data:
        raise ValueError('channel JSON must have "dim" and "kraus" keys')
    ops = [matrix_from_pairs(k) for k in data["kraus"]]
    return KrausChannel(dim=int(data["dim"]), kraus=ops)


def load_channel(path) -> KrausChannel:
    """Read a channel JSON file; rejects invalid files with a diagnostic."""
    with open(path) as fh:
        data = json.load(fh)
    return channel_from_dict(data)


def save_channel(ch: KrausChannel, path) -> None:
    """Write a channel to a JSON file."""
    with open(path, "w") as fh:
        json.dump(channel_to_dict(ch), fh, indent=2)
