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
    dagger,
    matrix_from_pairs,
    matrix_to_pairs,
    maximally_entangled,
    partial_trace,
    projector,
)

LOCC_SIMULABLE_THRESHOLD = 2.0 / 3.0


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map as a list of Kraus operators."""

    dim: int
    kraus: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "kraus",
            tuple(np.asarray(k, dtype=complex) for k in self.kraus),
        )
        if not self.kraus:
            raise ValueError("channel needs at least one Kraus operator")
        for k in self.kraus:
            if k.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not match dim {self.dim}"
                )
            if not np.all(np.isfinite(k)):
                raise ValueError("Kraus operator has non-finite entries")
        total = sum(dagger(k) @ k for k in self.kraus)
        dev = float(np.max(np.abs(total - np.eye(self.dim))))
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


@dataclass(frozen=True)
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
    mat = sum(
        np.kron(k, np.eye(n)) @ psi0 @ dagger(np.kron(k, np.eye(n)))
        for k in ch.kraus
    )
    return ChoiMatrix.from_matrix(mat, dim_out=n, dim_in=n)


def rank(ch: KrausChannel, tol: float = 1e-10) -> int:
    """Channel rank: Choi eigenvalues above tol relative to the largest."""
    vals = choi(ch).eigenvalues
    return int(np.sum(vals > tol * vals[0]))


def kraus_from_choi(c: ChoiMatrix, tol: float = 1e-10) -> KrausChannel:
    """Canonical Kraus operators from the scaled Choi eigenvectors.

    Operators are ordered by descending eigenvalue and phase-fixed so the
    largest-magnitude entry of each is real non-negative.
    """
    if c.dim_out != c.dim_in:
        raise ValueError("only square channels are supported")
    n = c.dim_out
    ops = []
    for val, vec in zip(c.eigenvalues, c.eigenvectors.T):
        if val <= tol * c.eigenvalues[0]:
            continue
        k = np.sqrt(n * val) * vec.reshape(n, n)
        pivot = k.reshape(-1)[int(np.argmax(np.abs(k)))]
        if abs(pivot) > 0:
            k = k * (pivot.conjugate() / abs(pivot))
        ops.append(k)
    return KrausChannel(dim=n, kraus=tuple(ops))


def _apply_on_legs(ch: KrausChannel, t: np.ndarray, row: int, col: int) -> np.ndarray:
    """Apply the channel, as one superoperator, to the (row, col) legs of a tensor."""
    k = np.stack(ch.kraus)
    superop = np.einsum("eik,ejl->ijkl", k, k.conj())
    out = np.tensordot(superop, t, axes=([2, 3], [row, col]))
    return np.moveaxis(out, (0, 1), (row, col))


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
    out = _apply_on_legs(ch, rho.reshape(dims * 2), which, len(dims) + which)
    return out.reshape(total, total)


def _simulate(rho, resource, branches, ch: KrausChannel, receivers):
    """Run a one-way protocol around one use of the channel by contraction.

    ``rho`` lives on A (x) R (R a passive reference leg), ``resource`` on
    a (x) b, the M ``branches`` on A (x) a and the M ``receivers`` on
    channel-output (x) b.  a is traced out once the branch is applied, so the
    channel and receivers act on (A, b).  Returns the output on B (x) R and
    the branch probabilities.
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
    # the N x N blocks of rho, one per reference index pair t = (r, s)
    x = rho.reshape(n, r, n, r).transpose(0, 2, 1, 3).reshape(n, n, r * r)
    # y[m] = sum_a' f[m, a'] x f[m, a']^dag: the branch applied, a' traced out
    y = np.einsum("mxyat,mxza->myzt", np.tensordot(f, x, axes=(3, 0)), f.conj())
    probs = np.einsum("myyrr->m", y.reshape(m, d, d, r, r)).real
    y = _apply_on_legs(ch, y.reshape(m, n, p, n, p, r * r), 1, 3)
    # out[B, B', t] = sum over m and b of <B b| W_m y_m W_m^dag |B' b>
    q = np.matmul(receivers, y.reshape(m, d, d * r * r)).reshape(m, n, p, d, r * r)
    out = np.einsum("mbcyt,mdcy->bdt", q, receivers.reshape(m, n, p, d).conj())
    return out.reshape(n, n, r, r).transpose(0, 2, 1, 3).reshape(n * r, n * r), probs


def identity_channel(n: int) -> KrausChannel:
    """The noiseless channel on an n-level system."""
    return KrausChannel(dim=n, kraus=(np.eye(n, dtype=complex),))


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
    return KrausChannel(dim=n, kraus=tuple(ops))


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
    ops = tuple(isometry[:, e, :] for e in range(target_rank))
    return KrausChannel(dim=n, kraus=ops)


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
    dim = int(data["dim"])
    ops = tuple(matrix_from_pairs(k) for k in data["kraus"])
    return KrausChannel(dim=dim, kraus=ops)


def load_channel(path) -> KrausChannel:
    """Read a channel JSON file; rejects invalid files with a diagnostic."""
    with open(path) as fh:
        data = json.load(fh)
    return channel_from_dict(data)


def save_channel(ch: KrausChannel, path) -> None:
    """Write a channel to a JSON file."""
    with open(path, "w") as fh:
        json.dump(channel_to_dict(ch), fh, indent=2)
