"""Standard N-level teleportation: Bell basis, corrections, end-to-end map.

The input lives on A and the shared pair on a (x) b.  Each Bell outcome is a
branch on A (x) a, after which a is traced out; the noisy channel acts on A
only (the system that would traverse the channel), and the correction acts
on channel-output (x) b, ending with a swap that moves the result onto the
channel-output leg before b is traced out (see ``channels._simulate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import KrausChannel, _simulate
from .qmath import assert_pure_state, maximally_entangled, projector, swap_matrix


@dataclass(frozen=True)
class BellBasis:
    """The N^2 maximally entangled basis states on an N (x) N space.

    Index convention: eta = n*N + m, where n sets the phase gradient and m
    the cyclic shift between the two factors.
    """

    dim: int
    states: tuple

    @property
    def projectors(self) -> tuple:
        return tuple(projector(v) for v in self.states)


def bell_state(n: int, eta: int) -> np.ndarray:
    """Vector (1/sqrt(N)) sum_k exp(2 pi i k n_/N) |k>|(k+m) mod N>."""
    phase_idx, shift = divmod(eta, n)
    vec = np.zeros(n * n, dtype=complex)
    for k in range(n):
        vec[k * n + (k + shift) % n] = np.exp(2j * np.pi * k * phase_idx / n)
    return vec / np.sqrt(n)


def bell_basis(n: int) -> BellBasis:
    """Complete orthonormal Bell basis for local dimension n >= 2."""
    if n < 2:
        raise ValueError(f"local dimension must be >= 2, got {n}")
    return BellBasis(dim=n, states=tuple(bell_state(n, eta) for eta in range(n * n)))


def bell_rotation(n: int) -> np.ndarray:
    """Unitary on N (x) N mapping Bell state eta onto computational basis state eta."""
    return np.array([bell_state(n, eta).conj() for eta in range(n * n)])


def correction_unitary(n: int, eta: int) -> np.ndarray:
    """Outcome-conditioned correction on output (x) b, swap included.

    The b-side factor undoes the phase/shift of Bell outcome eta; the swap
    then moves the recovered state onto the channel-output factor so the
    ancillas can be discarded.
    """
    if not 0 <= eta < n * n:
        raise ValueError(f"outcome index must lie in 0..{n * n - 1}, got {eta}")
    phase_idx, shift = divmod(eta, n)
    undo = np.zeros((n, n), dtype=complex)
    for k in range(n):
        undo[k, (k + shift) % n] = np.exp(2j * np.pi * k * phase_idx / n)
    return swap_matrix(n, n) @ np.kron(np.eye(n), undo)


@lru_cache(maxsize=8)
def _operators(n: int) -> tuple:
    """Bell projectors and outcome corrections for local dimension n, stacked
    and read-only (the cache hands the same arrays to every caller)."""
    branches = np.stack(bell_basis(n).projectors)
    receivers = np.stack([correction_unitary(n, eta) for eta in range(n * n)])
    branches.flags.writeable = False
    receivers.flags.writeable = False
    return branches, receivers


def _run(rho: np.ndarray, ch: KrausChannel, resource: np.ndarray):
    n = ch.dim
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match channel dim {n}")
    resource = np.asarray(resource, dtype=complex).reshape(-1)
    if resource.size != n * n:
        raise ValueError(
            f"resource dim {resource.size} is not bipartite with local dim {n}"
        )
    assert_pure_state(resource, tol=1e-10)
    branches, receivers = _operators(n)
    return _simulate(rho, resource, branches, ch, receivers)


def teleport(rho: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """Teleport rho using a maximally entangled pair; output equals rho."""
    out, _ = _run(rho, ch, maximally_entangled(ch.dim))
    return out


def teleport_with_resource(
    rho: np.ndarray, ch: KrausChannel, resource: np.ndarray
) -> np.ndarray:
    """Run the standard protocol with an arbitrary pure entangled resource."""
    out, _ = _run(rho, ch, resource)
    return out


def teleport_detailed(
    rho: np.ndarray, ch: KrausChannel, resource: np.ndarray | None = None
):
    """Teleport and also report the Bell-outcome branch probabilities."""
    if resource is None:
        resource = maximally_entangled(ch.dim)
    return _run(rho, ch, resource)
