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
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .qmath import (
    SEARCH_DIM_MAX,
    _INTEGER,
    _MATRICES,
    _check_size,
    _check_state,
    _check_tol,
    _haar_isometry,
    _load_json,
    _operator_stack,
    _psi0_projector,
    _read_json,
    dagger,
    fix_global_phase,
    matrix_from_pairs,
    matrix_to_pairs,
)

LOCC_SIMULABLE_THRESHOLD = 2.0 / 3.0


def _tp_deviation(kraus: np.ndarray) -> float:
    """Largest entry of |sum_e K_e^dag K_e - I| = |R^dag R - I| for the (E N, N)
    row stack R of an (E, N, N) Kraus stack."""
    rows = kraus.reshape(-1, kraus.shape[-1])
    return float(np.max(np.abs(dagger(rows) @ rows - np.eye(kraus.shape[-1]))))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map; ``kraus`` is a read-only
    (E, N, N) stack of the Kraus operators and ``choi_state`` its Choi state
    (see :func:`choi`), the one channel map every route reads, both built
    once, here: for the (E, N^2) matrix V of the raveled K_e, J = (1/N)
    V^T conj(V), which :func:`kraus_from_choi` inverts as V = (sqrt(N lambda)
    U)^T, lambda and U the eigenvalues and eigenvector columns of J."""

    dim: int
    kraus: np.ndarray
    choi_state: ChoiMatrix = field(init=False, repr=False)

    def __post_init__(self):
        _check_size(self.dim, "channel dimension", 2, SEARCH_DIM_MAX)
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
        n = self.dim
        # J = (1/N) V^T conj(V), 1/N the entry of |psi_0><psi_0|
        vecs = kraus.reshape(-1, n * n)
        mat = (vecs.T * _psi0_projector(n)[0, 0]) @ vecs.conj()
        object.__setattr__(self, "choi_state", ChoiMatrix.from_matrix(mat))

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
    """Trace-1 Choi state of a channel on one N-level system, on the output
    (x) input space, validated within ``tol`` by the constructor.

    ``matrix`` is an owned, read-only N^2 x N^2 copy, and ``dim`` the N read
    from its shape; the eigensystem is computed on first read and cached,
    also read-only.
    """

    matrix: np.ndarray
    tol: InitVar[float] = 1e-10

    def __post_init__(self, tol: float):
        matrix = np.array(self.matrix, dtype=complex)
        n = math.isqrt(matrix.shape[0]) if matrix.ndim == 2 else 0
        if n == 0 or matrix.shape != (n * n, n * n):
            raise ValueError(f"Choi matrix shape {matrix.shape} is not "
                             "N^2 x N^2 for an integer N >= 1")
        _check_state(matrix, "Choi matrix", tol)
        marginal = matrix.reshape((n,) * 4).trace(axis1=0, axis2=2)
        marginal.reshape(-1)[:: n + 1] -= 1 / n  # minus I/N
        marg_dev = float(abs(marginal).max())
        if marg_dev > tol:
            raise ValueError(
                "Choi input marginal deviates from I/N "
                f"(map not trace-preserving) by {marg_dev:.3e}"
            )
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, tol: float = 1e-10) -> "ChoiMatrix":
        """The validated Choi state of ``matrix``, as the constructor builds it."""
        return cls(matrix, tol)

    @property
    def dim(self) -> int:
        """N, the dimension of the system the channel acts on."""
        return math.isqrt(len(self.matrix))

    @cached_property
    def _eigensystem(self) -> tuple:
        """Eigenvalues and eigenvector columns of the Hermitian part, in
        descending eigenvalue order."""
        vals, vecs = np.linalg.eigh((self.matrix + dagger(self.matrix)) / 2.0)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        vals.flags.writeable = False
        vecs.flags.writeable = False
        return vals, vecs

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigensystem[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigensystem[1]


def choi(ch: KrausChannel) -> ChoiMatrix:
    """The channel's Choi state (channel (x) id)(|psi_0><psi_0|), built with it."""
    return ch.choi_state


def _rank(eigenvalues: np.ndarray, tol: float) -> int:
    """Count of descending eigenvalues above tol relative to the largest."""
    _check_tol(tol)
    return int(np.sum(eigenvalues > tol * eigenvalues[0]))


def rank(ch: KrausChannel, tol: float = 1e-10) -> int:
    """Channel rank: Choi eigenvalues above tol relative to the largest."""
    return _rank(choi(ch).eigenvalues, tol)


def kraus_from_choi(c: ChoiMatrix, tol: float = 1e-10) -> KrausChannel:
    """Canonical Kraus operators from the scaled Choi eigenvectors.

    Operators are ordered by descending eigenvalue and phase-fixed so the
    largest-magnitude entry of each is real non-negative.
    """
    n = c.dim
    k = _rank(c.eigenvalues, tol)
    ops = [fix_global_phase(np.sqrt(n * val) * vec).reshape(n, n)
           for val, vec in zip(c.eigenvalues[:k], c.eigenvectors.T[:k])]
    return KrausChannel(dim=n, kraus=ops)


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
    # the channel as one superoperator, S[i, j, k, l] = sum_e K_e[i, k]
    # conj(K_e[j, l]), on factor `which`'s row and column legs
    legs = (which, len(dims) + which)
    sup = np.einsum("eik,ejl->ijkl", ch.kraus, ch.kraus.conj())
    out = np.tensordot(sup, rho.reshape(dims * 2), axes=([2, 3], legs))
    return np.moveaxis(out, (0, 1), legs).reshape(total, total)


def identity_channel(n: int) -> KrausChannel:
    """The noiseless channel on an n-level system."""
    _check_size(n, "channel dimension", 2, SEARCH_DIM_MAX)
    return KrausChannel(dim=n, kraus=np.eye(n, dtype=complex)[None])


def _weyl(n: int, phase, shift) -> np.ndarray:
    """The (..., n, n) stack of Weyl operators W_ab |k> = exp(2 pi i k a / n)
    |k + b mod n>, one per entry of the broadcast integer index arrays
    ``phase`` (a) and ``shift`` (b), unchecked; the one builder of W_ab."""
    a, b = (np.asarray(x)[..., None, None] for x in (phase, shift))
    row, k = np.ogrid[:n, :n]
    return np.where(row == (k + b) % n, np.exp(1j * (2 * np.pi * k * a / n)), 0j)


def weyl_operator(n: int, shift_phase: int, shift: int) -> np.ndarray:
    """Generalized Pauli W: |k> -> exp(2 pi i k p / n) |k + s mod n>."""
    _check_size(n, "Weyl dimension n", 1)
    _check_size(shift_phase, "Weyl phase index", 0, n - 1)
    _check_size(shift, "Weyl shift index", 0, n - 1)
    return _weyl(n, shift_phase, shift)


def depolarizing(p: float, n: int = 2) -> KrausChannel:
    """Depolarizing channel rho -> p I/N + (1-p) rho on an N-level system."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {p}")
    _check_size(n, "dimension", 2, SEARCH_DIM_MAX)
    # every W_ab, scaled, in (a, b) order
    ops = np.sqrt(p) / n * _weyl(n, *divmod(np.arange(n * n), n))
    ops[0] = np.sqrt(1.0 - p + p / n**2) * np.eye(n, dtype=complex)  # W_00 = I
    return KrausChannel(dim=n, kraus=ops)


def random_channel(n: int, target_rank: int, seed) -> KrausChannel:
    """Random channel of the requested Choi rank via a Haar-random isometry.

    The isometry maps the system into system (x) environment with environment
    dimension equal to the requested rank; deterministic per seed.
    """
    _check_size(n, "channel dimension", 2, SEARCH_DIM_MAX)
    _check_size(target_rank, "rank", 1, n * n)
    isometry = _haar_isometry(n * target_rank, n, seed).reshape(n, target_rank, n)
    return KrausChannel(dim=n, kraus=isometry.transpose(1, 0, 2))


def depolarizing_locc_simulable(p: float) -> bool:
    """Whether the qubit depolarizing channel is LOCC-simulable (p >= 2/3)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {p}")
    return p >= LOCC_SIMULABLE_THRESHOLD


def channel_to_dict(ch: KrausChannel) -> dict:
    """JSON-ready form: {"dim": N, "kraus": [matrix, ...]}, entries [re, im]."""
    return {"dim": ch.dim, "kraus": [matrix_to_pairs(k) for k in ch.kraus]}


_CHANNEL_KEYS = {"dim": _INTEGER, "kraus": _MATRICES}


def load_channel(path) -> KrausChannel:
    """Read a channel JSON file; rejects invalid files with a diagnostic."""
    data = _read_json(_load_json(path), _CHANNEL_KEYS)
    return KrausChannel(dim=data["dim"],
                        kraus=[matrix_from_pairs(k) for k in data["kraus"]])


def save_channel(ch: KrausChannel, path) -> None:
    """Write a channel to a JSON file."""
    with open(path, "w") as fh:
        json.dump(channel_to_dict(ch), fh, indent=2)
