"""Executable checks behind the necessity argument.

These functions turn the determinism relations, the no-communication
contradiction, the Cauchy-Schwarz entanglement bound, and the majorization
criterion for LOCC pure-state conversion into numeric checks on concrete
protocols.  They certify finite algebra on given operators; they never claim
nonexistence over all protocols (the optimizer probes that empirically).
"""

from __future__ import annotations

import numpy as np

from .protocol import AncillaResource, ResourceProtocol, _check_resource
from .qmath import _check_size, _check_tol


def beta_scalars(proto: ResourceProtocol) -> np.ndarray:
    """Least-squares branch scalars fitting the faithful-correction relation.

    The relation prescribes G[eta,k,l,n,m] = sqrt(N) beta_eta on the
    index-matched tuples and 0 elsewhere; the unique least-squares minimizer
    is the matched-tuple average over the min(N, P)^2 tuples with k == m and
    l == n, and reduces to the exact scalar whenever the relation holds.
    Returns the protocol's kept, read-only array.
    """
    return proto._proof_numbers[2]


def no_cc_contradiction(proto: ResourceProtocol, tol: float = 1e-9) -> dict:
    """Evaluate the no-classical-communication contradiction for M = 1.

    Squaring the faithful-correction relation on factorized vectors and
    summing it with the determinism relations forces the squared Schmidt
    coefficients to total N*P, while normalization fixes the total to 1; the
    two numbers are reported and the faithful-correction verdict is false
    whenever they differ.  Returns the :func:`proof_report` dict.
    """
    if proto.m != 1:
        raise ValueError(
            f"the no-communication argument applies to M = 1, got M = {proto.m}"
        )
    return proof_report(proto, tol=tol)


def proof_report(proto: ResourceProtocol, tol: float = 1e-9) -> dict:
    """All proof-machinery numbers and verdicts for a protocol, JSON-ready.

    ``branch_scalars`` holds each :func:`beta_scalars` entry as an [re, im]
    pair.  ``contradiction_lhs`` is the numerically evaluated squared-
    coefficient sum implied by the faithful-correction relations (always 1
    for a valid resource); ``contradiction_rhs`` is the value the same
    algebra would need, namely N*P.  Both are None when the protocol uses
    classical communication (M > 1), where the contradiction argument does
    not apply.
    """
    _check_tol(tol)
    n, p = proto.n, proto.local_dim
    r13, cs, betas, lhs = proto._proof_numbers
    ent_sum, satisfied = entanglement_bound(proto.resource, n)
    verdicts = {
        "deterministic": bool(r13 <= tol),
        "entanglement_bound_satisfied": bool(satisfied),
        "cauchy_schwarz_ok": bool(cs <= tol),
    }
    rhs = None
    if lhs is not None:
        rhs = float(n * p)
        verdicts["faithful_correction_possible"] = bool(abs(lhs - rhs) <= tol)

    return {
        "relation13_max_residual": r13,
        "entanglement_sum": ent_sum,
        "bound": float(np.sqrt(n)),
        "branch_scalars": betas.view(float).reshape(-1, 2).tolist(),
        "cauchy_schwarz_violation": cs,
        "contradiction_lhs": lhs,
        "contradiction_rhs": rhs,
        "verdicts": verdicts,
    }


def entanglement_bound(resource: AncillaResource, n: int) -> tuple:
    """Sum of Schmidt coefficients and whether it reaches sqrt(N)."""
    _check_resource(resource)
    _check_size(n, "system dimension n", 1)
    total = float(resource.mu.sum())
    return total, bool(total >= np.sqrt(n) - 1e-12)


def cauchy_schwarz_check(proto: ResourceProtocol) -> float:
    """Worst violation of the Cauchy-Schwarz bound on the branch relations.

    For every index tuple the squared mu-weighted inner product of sender
    and receiver blocks is bounded by the product of their mu-weighted
    norms.  Whenever the proof's scalar relation holds, the squared inner
    product equals N |beta_eta|^2 on index-matched tuples, so this is the
    bound the entanglement argument sums; unlike the scalar form it is
    valid for every protocol, not only faithful ones.  Returns
    max(|inner|^2 - product), which stays <= 0 up to rounding.
    """
    return proto._proof_numbers[1]


def nielsen_convertible(
    source: AncillaResource, target: AncillaResource, tol: float = 1e-12
) -> bool:
    """LOCC convertibility of pure states by majorization of squared coefficients.

    True iff every partial sum of the descending squared source coefficients
    is bounded by the corresponding target partial sum.
    """
    _check_resource(source)
    _check_resource(target)
    _check_tol(tol)
    size = max(source.mu.size, target.mu.size)  # zero-padded to one length
    s, t = (np.sort(np.pad(x.mu, (0, size - x.mu.size)) ** 2)[::-1]
            for x in (source, target))
    return bool(np.all(np.cumsum(s) <= np.cumsum(t) + tol))
