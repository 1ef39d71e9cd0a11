"""Executable checks behind the necessity argument.

These functions turn the determinism relations, the no-communication
contradiction, the Cauchy-Schwarz entanglement bound, and the majorization
criterion for LOCC pure-state conversion into numeric checks on concrete
protocols.  They certify finite algebra on given operators; they never claim
nonexistence over all protocols (the optimizer probes that empirically).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .protocol import AncillaResource, ResourceProtocol, block_operators


@dataclass(frozen=True)
class ProofReport:
    """Numbers and verdicts produced by the proof-machinery checks.

    ``contradiction_lhs`` is the numerically evaluated squared-coefficient
    sum implied by the faithful-correction relations (always 1 for a valid
    resource); ``contradiction_rhs`` is the value the same algebra would
    need, namely N*P.  Both are None when the protocol uses classical
    communication (M > 1), where the contradiction argument does not apply.
    """

    relation13_max_residual: float
    entanglement_sum: float
    bound: float
    branch_scalars: tuple
    cauchy_schwarz_violation: float
    verdicts: dict = field(default_factory=dict)
    contradiction_lhs: float | None = None
    contradiction_rhs: float | None = None

    def to_dict(self) -> dict:
        return {
            "relation13_max_residual": self.relation13_max_residual,
            "entanglement_sum": self.entanglement_sum,
            "bound": self.bound,
            "branch_scalars": [[float(b.real), float(b.imag)]
                               for b in self.branch_scalars],
            "cauchy_schwarz_violation": self.cauchy_schwarz_violation,
            "contradiction_lhs": self.contradiction_lhs,
            "contradiction_rhs": self.contradiction_rhs,
            "verdicts": dict(self.verdicts),
        }


def check_relations_13(blocks: tuple) -> float:
    """Worst residual of the four determinism relations on the (a, b) blocks
    of :func:`block_operators`.

    Sender relations sum over branches and one ancilla index; receiver
    relations hold separately for every branch.
    """
    a, b = blocks
    n = a.shape[-1]
    eye = np.eye(n)
    delta = np.eye(a.shape[1])

    # sum_{eta,k} A[i,k] A[j,k]^dag  and  sum_{eta,k} A[k,i]^dag A[k,j]
    left = np.einsum("eiknx,ejkmx->ijnm", a, a.conj())
    right = np.einsum("ekixn,ekjxm->ijnm", a.conj(), a)
    target = np.einsum("ij,nm->ijnm", delta, eye)
    res = max(
        float(np.max(np.linalg.norm(left - target, axis=(2, 3)))),
        float(np.max(np.linalg.norm(right - target, axis=(2, 3)))),
    )

    # per-branch receiver relations
    b_left = np.einsum("eiknx,ejkmx->eijnm", b, b.conj())
    b_right = np.einsum("ekixn,ekjxm->eijnm", b.conj(), b)
    b_target = target[np.newaxis]
    res = max(
        res,
        float(np.max(np.linalg.norm(b_left - b_target, axis=(3, 4)))),
        float(np.max(np.linalg.norm(b_right - b_target, axis=(3, 4)))),
    )
    return res


def _inner_product_tensor(mu: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """G[eta, k, l, n, m] = sum_i mu_i <n| A[l,i] B[k,i] |m>."""
    return np.einsum("i,elinx,ekixm->eklnm", mu, a, b)


def _matching_mask(local_dim: int, n: int) -> np.ndarray:
    """Mask over (k, l, n, m) where the ancilla indices match the factor basis."""
    k = np.arange(local_dim)
    n_idx = np.arange(n)
    same = k[:, None] == n_idx[None, :]  # (P, N): ancilla index == basis index
    return same[:, None, None, :] & same[None, :, :, None]  # k == m and l == n


def beta_scalars(proto: ResourceProtocol) -> np.ndarray:
    """Least-squares branch scalars fitting the faithful-correction relation.

    The relation prescribes G[eta,k,l,n,m] = sqrt(N) beta_eta on the
    index-matched tuples and 0 elsewhere; the unique least-squares minimizer
    is the matched-tuple average, and reduces to the exact scalar whenever
    the relation holds.
    """
    a, b = block_operators(proto)
    g = _inner_product_tensor(proto.resource.mu, a, b)
    return _beta_scalars(g, proto.n, proto.local_dim)


def _beta_scalars(g: np.ndarray, n: int, local_dim: int) -> np.ndarray:
    """:func:`beta_scalars` from the inner-product tensor G."""
    mask = _matching_mask(local_dim, n)
    count = int(np.sum(mask))  # min(P, N)^2 >= 1
    matched = np.where(mask[np.newaxis], g, 0.0)
    return matched.sum(axis=(1, 2, 3, 4)) / (np.sqrt(n) * count)


def no_cc_contradiction(proto: ResourceProtocol, tol: float = 1e-9) -> ProofReport:
    """Evaluate the no-classical-communication contradiction for M = 1.

    Squaring the faithful-correction relation on factorized vectors and
    summing it with the determinism relations forces the squared Schmidt
    coefficients to total N*P, while normalization fixes the total to 1; the
    two numbers are reported and the faithful-correction verdict is false
    whenever they differ.
    """
    if proto.m != 1:
        raise ValueError(
            f"the no-communication argument applies to M = 1, got M = {proto.m}"
        )
    return proof_report(proto, tol=tol)


def proof_report(proto: ResourceProtocol, tol: float = 1e-9) -> ProofReport:
    """Assemble all proof-machinery numbers and verdicts for a protocol."""
    n, mu = proto.n, proto.resource.mu
    a, b = block_operators(proto)
    g = _inner_product_tensor(mu, a, b)
    r13 = check_relations_13((a, b))
    ent_sum, satisfied = entanglement_bound(proto.resource, n)
    betas = _beta_scalars(g, n, proto.local_dim)
    cs = _cauchy_schwarz(mu, a, b, g)

    verdicts = {
        "deterministic": bool(r13 <= tol),
        "entanglement_bound_satisfied": bool(satisfied),
        "cauchy_schwarz_ok": bool(cs <= tol),
    }
    lhs = rhs = None
    if proto.m == 1:
        per_m = np.sum(np.abs(g[0]) ** 2, axis=(0, 1, 2))
        lhs = float(np.mean(per_m))
        rhs = float(n * proto.local_dim)
        verdicts["faithful_correction_possible"] = bool(abs(lhs - rhs) <= tol)

    return ProofReport(
        relation13_max_residual=r13,
        entanglement_sum=ent_sum,
        bound=float(np.sqrt(n)),
        branch_scalars=tuple(betas),
        cauchy_schwarz_violation=cs,
        verdicts=verdicts,
        contradiction_lhs=lhs,
        contradiction_rhs=rhs,
    )


def entanglement_bound(resource: AncillaResource, n: int) -> tuple:
    """Sum of Schmidt coefficients and whether it reaches sqrt(N)."""
    total = float(np.sum(resource.mu))
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
    a, b = block_operators(proto)
    mu = proto.resource.mu
    return _cauchy_schwarz(mu, a, b, _inner_product_tensor(mu, a, b))


def _cauchy_schwarz(mu: np.ndarray, a: np.ndarray, b: np.ndarray,
                    g: np.ndarray) -> float:
    """:func:`cauchy_schwarz_check` from the blocks and G."""
    prod_a = np.einsum("i,elinj->eln", mu, np.abs(a) ** 2)
    prod_b = np.einsum("p,ekpqm->ekm", mu, np.abs(b) ** 2)
    product = np.einsum("eln,ekm->eklnm", prod_a, prod_b)
    return float(np.max(np.abs(g) ** 2 - product))


def _zero_pad_pair(x: np.ndarray, y: np.ndarray) -> tuple:
    size = max(x.size, y.size)
    return (
        np.pad(x, (0, size - x.size)),
        np.pad(y, (0, size - y.size)),
    )


def nielsen_convertible(
    source: AncillaResource, target: AncillaResource, tol: float = 1e-12
) -> bool:
    """LOCC convertibility of pure states by majorization of squared coefficients.

    True iff every partial sum of the descending squared source coefficients
    is bounded by the corresponding target partial sum.
    """
    s, t = _zero_pad_pair(source.mu, target.mu)
    s = np.sort(s**2)[::-1]
    t = np.sort(t**2)[::-1]
    return bool(np.all(np.cumsum(s) <= np.cumsum(t) + tol))
