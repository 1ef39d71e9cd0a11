"""Standard N-level teleportation: Bell states, corrections, ``qt_protocol``.

``teleport`` is ``apply_protocol`` on ``qt_protocol(n)``.  The input lives on A
and the shared pair on a (x) b.  Each outcome eta is a branch Pi_eta R on
A (x) a (R maps the Bell basis onto the computational one), after which a is
traced out; the noisy channel acts on A only (the system that would traverse
the channel), and the correction acts on channel-output (x) b, ending with a
swap that moves the result onto the channel-output leg before b is traced
out (see ``protocol.apply_protocol``).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from .channels import KrausChannel, weyl_operator
from .protocol import (AncillaResource, ResourceProtocol, _branch_probabilities,
                       _check_resource, apply_protocol, basis_projections)
from .qmath import _check_size


def bell_state(n: int, eta: int) -> np.ndarray:
    """Vector (1/sqrt(N)) sum_k exp(2 pi i k n_/N) |k>|(k+m) mod N>, with
    (n_, m) = divmod(eta, N); its coefficient matrix is the transposed Weyl
    operator W(n_, m) over sqrt(N), for n >= 2."""
    _check_size(n, "local dimension", 2)
    _check_size(eta, "outcome index", 0, n * n - 1)
    return weyl_operator(n, *divmod(eta, n)).T.reshape(-1) / np.sqrt(n)


def bell_basis(n: int) -> np.ndarray:
    """The N^2 Bell states of an N (x) N space, one per row, for n >= 2.

    Index convention: row eta = n_*N + m, where n_ sets the phase gradient
    and m the cyclic shift between the two factors.
    """
    _check_size(n, "local dimension", 2)
    return np.array([bell_state(n, eta) for eta in range(n * n)])


def bell_rotation(n: int) -> np.ndarray:
    """Unitary on N (x) N mapping Bell state eta onto computational basis state eta."""
    return bell_basis(n).conj()


def correction_unitary(n: int, eta: int) -> np.ndarray:
    """Outcome-conditioned correction on output (x) b, swap included.

    The b-side factor undoes the phase/shift of Bell outcome eta; the swap
    then moves the recovered state onto the channel-output factor so the
    ancillas can be discarded.
    """
    _check_size(n, "local dimension", 2)
    _check_size(eta, "outcome index", 0, n * n - 1)
    undo = weyl_operator(n, *divmod(eta, n)).T
    # <x y| W |z w> = undo[x, w] delta(y, z): undo applied to b lands on the
    # output leg, and the output's old content moves to b
    return np.einsum("yz,xw->xyzw", np.eye(n), undo).reshape(n * n, n * n)


@lru_cache(maxsize=8, typed=True)  # typed: n = 2.0 must miss N = 2 and raise
def qt_protocol(n: int) -> ResourceProtocol:
    """The teleportation protocol as a resource protocol.

    Sender branches are computational projections after the rotation that
    maps the Bell basis onto the computational basis; receivers are the
    standard outcome corrections.  Physically identical to projecting onto
    the Bell states directly, since the measured system is discarded.
    Cached: every caller shares one protocol, whose arrays are read-only.
    """
    _check_size(n, "teleportation dimension N", 2)
    d = n * n
    return ResourceProtocol(
        n=n,
        resource=AncillaResource(mu=np.full(n, 1.0 / np.sqrt(n))),
        sender_projections=basis_projections(np.arange(d)),
        sender_unitaries=np.broadcast_to(bell_rotation(n), (d, d, d)),
        receiver_unitaries=[correction_unitary(n, eta) for eta in range(d)],
    )


def teleport(rho: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """Teleport rho using a maximally entangled pair; output equals rho."""
    return apply_protocol(qt_protocol(ch.dim), ch, rho)


def teleport_detailed(
    rho: np.ndarray, ch: KrausChannel, resource: AncillaResource | None = None
):
    """Teleport and also report the Bell-outcome branch probabilities.

    ``resource`` is the shared pair as an :class:`AncillaResource`, the pair
    sum_i mu_i |ii> in its Schmidt basis; the default is the maximally
    entangled pair of ``qt_protocol(N)``.  A pair in any other local basis is
    a protocol whose sender and receivers absorb that basis: build it as a
    :class:`ResourceProtocol` and run it with ``apply_protocol``.
    """
    n = ch.dim
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match channel dim {n}")
    proto = qt_protocol(n)
    if resource is not None:
        _check_resource(resource)
        if resource.local_dim != n:
            raise ValueError(f"resource local dim {resource.local_dim} "
                             f"does not match channel dim {n}")
        # no determinism check: qt_protocol(N) passed it, and it ignores mu
        proto = replace(proto, resource=resource, validate=False)
    return apply_protocol(proto, ch, rho), _branch_probabilities(proto, rho)
