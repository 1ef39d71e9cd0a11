"""General resource protocols and their Choi-level control-map form.

A resource protocol consists of a shared pure ancilla pair with Schmidt
vector mu (local dimension P on each side), M sender branch operators on
A (x) a, each stored as projection times unitary, and M receiver unitaries
on B (x) b chosen by the transmitted outcome index.  Determinism requires
the branch family to resolve the identity in both operator orders and every
receiver operator to be unitary.

Index conventions, fixed once here and relied on everywhere:

* composite index on A (x) a is row-major, (r, i) -> r*P + i;
* sender blocks a[eta, i, j] are the N x N operators <i|_a L_eta |j>_a,
  receiver blocks b[eta, k, l] are <k|_b W_eta |l>_b, both in the Schmidt
  bases of the resource;
* the control operators carry the receiver block on the output factor and
  the transposed sender block on the input factor, with both ancilla
  indices running over 0..P-1 (the Schmidt index range).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channels import ChoiMatrix, KrausChannel, _simulate, choi
from .qmath import (_operator_stack, haar_unitary, matrix_from_pairs,
                    matrix_to_pairs, maximally_entangled, projector)


def _check_schmidt(mu: np.ndarray) -> None:
    """Raise unless every row of mu is a finite, non-negative unit vector."""
    dev = float(np.abs((mu**2).sum(axis=-1) - 1.0).max())
    if dev <= 1e-10 and mu.min() >= 0:  # false for NaN and inf too
        return
    if not np.all(np.isfinite(mu)):
        raise ValueError("Schmidt coefficients must be finite")
    if np.any(mu < 0):
        raise ValueError("Schmidt coefficients must be non-negative")
    raise ValueError(
        f"squared Schmidt coefficients must sum to 1, deviation {dev:.3e}"
    )


def _check_determinism(ops: np.ndarray, receivers: np.ndarray, tol: float) -> float:
    """Determinism residuals of stacked branch operators and receivers.

    ``ops`` and ``receivers`` are (..., M, d, d); leading axes index
    independent protocols.  Raises on the first protocol whose worst residual
    exceeds tol, otherwise returns the worst residual over all of them.
    """
    *lead, m, d, _ = ops.shape
    column = ops.reshape(*lead, m * d, d)  # the L_eta stacked vertically
    row = ops.swapaxes(-3, -2).reshape(*lead, d, m * d)  # and side by side
    # [..., 0] is sum L^dag L, [..., 1] is sum L L^dag, [..., 2:] each W W^dag
    gram = np.concatenate([
        (column.conj().swapaxes(-1, -2) @ column)[..., None, :, :],
        (row @ row.conj().swapaxes(-1, -2))[..., None, :, :],
        receivers @ receivers.conj().swapaxes(-1, -2)], axis=-3)
    dev = np.abs(gram - np.eye(d))
    worst = float(dev.max())
    if worst <= tol:  # false for NaN too
        return worst
    res_left = dev[..., 0, :, :].max(axis=(-2, -1))
    res_right = dev[..., 1, :, :].max(axis=(-2, -1))
    res_recv = dev[..., 2:, :, :].max(axis=(-3, -2, -1))
    per_protocol = np.maximum(np.maximum(res_left, res_right), res_recv)
    i = np.flatnonzero(~(per_protocol <= tol))[0]
    if not (np.all(np.isfinite(ops)) and np.all(np.isfinite(receivers))):
        raise ValueError("protocol is not deterministic: operators have "
                         "non-finite entries")
    raise ValueError(
        "protocol is not deterministic: "
        f"sum L^dag L residual {res_left.flat[i]:.3e}, "
        f"sum L L^dag residual {res_right.flat[i]:.3e}, "
        f"receiver unitarity residual {res_recv.flat[i]:.3e}"
    )


@dataclass(frozen=True, eq=False)
class AncillaResource:
    """Schmidt coefficients of the shared pure ancilla pair (a read-only copy)."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float).reshape(-1)
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        _check_schmidt(mu)

    @property
    def local_dim(self) -> int:
        return int(self.mu.size)

    def state(self) -> np.ndarray:
        """Vector sum_i mu_i |i>|i> on the a (x) b pair."""
        p = self.local_dim
        vec = np.zeros(p * p, dtype=complex)
        vec[:: p + 1] = self.mu
        return vec


@dataclass(frozen=True, eq=False)
class ResourceProtocol:
    """One round of: sender branch, single channel use, receiver correction.

    Each operator family is held as one read-only (M, N*P, N*P) stack, and
    ``branches`` is the stack of branch operators L_eta = Pi_eta U_eta on
    A (x) a.  Operators that are not (N*P) x (N*P) are rejected here;
    ``validate`` governs only the determinism check.
    """

    n: int
    resource: AncillaResource
    sender_projections: np.ndarray
    sender_unitaries: np.ndarray
    receiver_unitaries: np.ndarray
    validate: bool = field(default=True, repr=False)
    branches: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = {len(self.sender_projections), len(self.sender_unitaries),
                  len(self.receiver_unitaries)}
        if len(counts) > 1:
            raise ValueError("sender and receiver operator counts must match")
        if counts == {0}:
            raise ValueError("protocol needs at least one branch")
        d = self.n * self.local_dim
        expected = f"N*P = {self.n}*{self.local_dim} = {d}"
        for name, kind in (("sender_projections", "sender projection"),
                           ("sender_unitaries", "sender unitary"),
                           ("receiver_unitaries", "receiver")):
            stack = _operator_stack(getattr(self, name), d, kind, expected)
            object.__setattr__(self, name, stack)
        branches = self.sender_projections @ self.sender_unitaries
        branches.flags.writeable = False
        object.__setattr__(self, "branches", branches)
        if self.validate:
            self.check_determinism()

    @property
    def m(self) -> int:
        return len(self.sender_projections)

    @property
    def local_dim(self) -> int:
        return self.resource.local_dim

    def check_determinism(self, tol: float = 1e-10) -> float:
        """Validate the determinism invariants; returns the worst residual."""
        return _check_determinism(self.branches, self.receiver_unitaries, tol)


def _run(proto: ResourceProtocol, ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    if ch.dim != proto.n:
        raise ValueError(f"channel dim {ch.dim} does not match protocol dim {proto.n}")
    return _simulate(rho, proto.resource.state(), proto.branches, ch,
                     proto.receiver_unitaries)[0]


def apply_protocol(
    proto: ResourceProtocol, ch: KrausChannel, rho: np.ndarray
) -> np.ndarray:
    """Run the protocol around one use of the channel, tracing the ancillas."""
    n = proto.n
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match protocol dim {n}")
    return _run(proto, ch, rho)


def _blocks(ops: np.ndarray, n: int, p: int) -> np.ndarray:
    """[..., i, j] -> the N x N block <i| op |j> of each (..., N*P, N*P) operator."""
    lead = ops.ndim - 2
    t = ops.reshape(*ops.shape[:-2], n, p, n, p)
    return t.transpose(*range(lead), lead + 1, lead + 3, lead, lead + 2)


def _control_operators(mu: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lambda[..., eta, k, l] = sum_i mu_i B[k,i] (x) A[l,i]^T from stacked blocks.

    Leading axes of mu (..., P) and of the (..., M, P, P, N, N) blocks index
    independent protocols.
    """
    # indices: B[k,i] carries (b_out, b_in), A[l,i]^T carries (a_out, a_in)
    # with A^T[x, y] = A[y, x]; rows (b_out, a_out), cols (b_in, a_in).
    ops = np.einsum("...i,...ekibc,...elida->...eklbacd", mu, b, a)
    *lead, m, p, _, n, _, _, _ = ops.shape
    return ops.reshape(*lead, m, p, p, n * n, n * n)


def _overlap(lam: np.ndarray, r: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """<psi0| sum_j Lam_j R Lam_j^dag |psi0> per stack of (..., J, N^2, N^2)
    control operators, clipped to [0, 1]."""
    moved = lam.conj().swapaxes(-1, -2) @ psi0
    val = np.einsum("...ja,ab,...jb->...", moved.conj(), r, moved)
    return val.real.clip(0.0, 1.0)


def block_operators(proto: ResourceProtocol) -> tuple:
    """The ancilla-indexed N x N blocks a[eta, i, j] and b[eta, k, l] of all
    sender and receiver ops, as the pair (a, b); see the module docstring."""
    n, p = proto.n, proto.local_dim
    return (_blocks(proto.branches, n, p),
            _blocks(proto.receiver_unitaries, n, p))


def lambda_operators(proto: ResourceProtocol) -> np.ndarray:
    """Control operators Lambda[eta, k, l] = sum_i mu_i B[k,i] (x) A[l,i]^T,
    on the output (x) input space, as an (M, P, P, N^2, N^2) array."""
    return _control_operators(proto.resource.mu, *block_operators(proto))


def _flat_control_operators(proto: ResourceProtocol, r: ChoiMatrix) -> np.ndarray:
    """All control operators as one (M*P*P, N^2, N^2) stack, after checking
    that the Choi state's dims match the protocol's."""
    n = proto.n
    if r.dim_out != n or r.dim_in != n:
        raise ValueError(
            f"Choi dims {r.dim_out}x{r.dim_in} do not match protocol dim {n}"
        )
    return lambda_operators(proto).reshape(-1, n * n, n * n)


def control_map(proto: ResourceProtocol, r: ChoiMatrix) -> ChoiMatrix:
    """Transform a Choi state through the protocol's control operators."""
    lam = _flat_control_operators(proto, r)
    nn = lam.shape[-1]
    # [Lam_1 | Lam_2 | ...] times its R-weighted copy: sum_j Lam_j R Lam_j^dag
    rows = lam.transpose(1, 0, 2).reshape(nn, -1)
    out = (rows.reshape(-1, nn) @ r.matrix).reshape(nn, -1) @ rows.conj().T
    return ChoiMatrix.from_matrix(out, dim_out=proto.n, dim_in=proto.n, tol=1e-8)


def effective_choi(proto: ResourceProtocol, ch: KrausChannel) -> ChoiMatrix:
    """Choi state of the end-to-end map, by direct simulation of the protocol.

    Independent of the control-operator route: runs the full protocol once on
    |psi_0><psi_0| over the input and a passive reference copy, which by
    linearity is sum_ij E(|i><j|) (x) |i><j| / N.
    """
    n = proto.n
    out = _run(proto, ch, projector(maximally_entangled(n)))
    return ChoiMatrix.from_matrix(out, dim_out=n, dim_in=n, tol=1e-8)


def residual(proto: ResourceProtocol, ch: KrausChannel) -> float:
    """Frobenius distance of the controlled Choi state from the ideal target."""
    return _residual(control_map(proto, choi(ch)))


def _residual(controlled: ChoiMatrix) -> float:
    """:func:`residual` from the controlled Choi state."""
    target = projector(maximally_entangled(controlled.dim_out))
    return float(np.linalg.norm(controlled.matrix - target))


def target_overlap(proto: ResourceProtocol, r: ChoiMatrix) -> float:
    """Overlap of the controlled Choi state with the ideal target."""
    lam = _flat_control_operators(proto, r)
    return float(_overlap(lam, r.matrix, maximally_entangled(proto.n)))


def entanglement_fidelity(proto: ResourceProtocol, ch: KrausChannel) -> float:
    """Overlap of the controlled Choi state with the ideal target; 1 iff faithful."""
    return target_overlap(proto, choi(ch))


def bare_protocol(n: int, local_dim: int = 1, mu=None) -> ResourceProtocol:
    """Single-branch protocol that just sends the state through the channel."""
    if mu is None:
        mu = np.zeros(local_dim)
        mu[0] = 1.0
    d = n * len(np.atleast_1d(mu))
    eye = np.eye(d, dtype=complex)[None]
    return ResourceProtocol(
        n=n,
        resource=AncillaResource(mu=mu),
        sender_projections=eye,
        sender_unitaries=eye,
        receiver_unitaries=eye,
    )


def basis_projections(labels) -> np.ndarray:
    """Stacked orthogonal projectors, one per label 0..max: projector k keeps
    the computational basis states j with labels[j] == k."""
    labels = np.asarray(labels)
    keep = labels == np.arange(labels.max() + 1)[:, None]
    return keep[:, :, None] * np.eye(labels.size, dtype=complex)


def _partition_projections(dim: int, m: int) -> np.ndarray:
    """Split the computational basis of `dim` into m contiguous projectors."""
    if not 1 <= m <= dim:
        raise ValueError(f"branch count must lie in 1..{dim}, got {m}")
    bounds = np.linspace(0, dim, m + 1).astype(int)
    return basis_projections(np.searchsorted(bounds, np.arange(dim), side="right") - 1)


def random_protocol(n: int, local_dim: int, m: int, seed) -> ResourceProtocol:
    """Random deterministic protocol: Haar sender rotation followed by a
    complete projective measurement with m outcomes, Haar receivers, and a
    random Schmidt vector.  Deterministic per seed.  Requires m <= N*P.
    """
    rng = np.random.default_rng(seed)
    d = n * local_dim
    mu = np.abs(rng.standard_normal(local_dim))
    mu /= np.linalg.norm(mu)
    sender = haar_unitary(d, rng)
    return ResourceProtocol(
        n=n,
        resource=AncillaResource(mu=mu),
        sender_projections=_partition_projections(d, m),
        sender_unitaries=np.broadcast_to(sender, (m, d, d)),
        receiver_unitaries=[haar_unitary(d, rng) for _ in range(m)],
    )


def protocol_to_dict(proto: ResourceProtocol) -> dict:
    """JSON-ready form with complex entries as [re, im] pairs."""
    return {
        "N": proto.n,
        "P": proto.local_dim,
        "M": proto.m,
        "mu": [float(x) for x in proto.resource.mu],
        "sender": [
            {"projection": matrix_to_pairs(p), "unitary": matrix_to_pairs(u)}
            for p, u in zip(proto.sender_projections, proto.sender_unitaries)
        ],
        "receiver": [matrix_to_pairs(w) for w in proto.receiver_unitaries],
    }


def protocol_from_dict(data: dict, validate: bool = True) -> ResourceProtocol:
    """Build a protocol from its JSON form, validating determinism by default."""
    required = {"N", "P", "M", "mu", "sender", "receiver"}
    if not isinstance(data, dict) or not required.issubset(data):
        missing = required - set(data) if isinstance(data, dict) else required
        raise ValueError(f"protocol JSON missing keys: {sorted(missing)}")
    mu = np.asarray(data["mu"], dtype=float)
    if mu.size != int(data["P"]):
        raise ValueError(
            f"mu length {mu.size} does not match declared P={data['P']}"
        )
    if len(data["sender"]) != int(data["M"]) or len(data["receiver"]) != int(data["M"]):
        raise ValueError("sender/receiver counts do not match declared M")
    return ResourceProtocol(
        n=int(data["N"]),
        resource=AncillaResource(mu=mu),
        sender_projections=[matrix_from_pairs(e["projection"]) for e in data["sender"]],
        sender_unitaries=[matrix_from_pairs(e["unitary"]) for e in data["sender"]],
        receiver_unitaries=[matrix_from_pairs(w) for w in data["receiver"]],
        validate=validate,
    )


def load_protocol(path, validate: bool = True) -> ResourceProtocol:
    """Read a protocol JSON file."""
    with open(path) as fh:
        data = json.load(fh)
    return protocol_from_dict(data, validate=validate)


def save_protocol(proto: ResourceProtocol, path) -> None:
    """Write a protocol to a JSON file."""
    with open(path, "w") as fh:
        json.dump(protocol_to_dict(proto), fh, indent=2)
