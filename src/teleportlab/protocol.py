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
from functools import cached_property

import numpy as np

from .channels import ChoiMatrix, KrausChannel, choi
from .qmath import (_INTEGER, _MATRICES, _MATRIX, _NUMBERS, _check_size,
                    _check_tol, _operator_stack, _psi0_projector, _read_json,
                    haar_unitary, matrix_from_pairs, matrix_to_pairs)


DETERMINISM_TOL = 1e-10  # the determinism gate's default bound on |Gram - I|


def _check_schmidt(mu: np.ndarray) -> None:
    """Raise unless the vector mu is finite, non-negative and of unit norm."""
    dev = abs(float((mu**2).sum()) - 1.0)
    if dev <= 1e-10 and mu.min() >= 0:  # false for NaN and inf too
        return
    if not np.all(np.isfinite(mu)):
        raise ValueError("Schmidt coefficients must be finite")
    if np.any(mu < 0):
        raise ValueError("Schmidt coefficients must be non-negative")
    raise ValueError(
        f"squared Schmidt coefficients must sum to 1, deviation {dev:.3e}"
    )


def _check_dims(n: int, p: int) -> None:
    """Raise unless the dimensions N (system) and P (ancilla) are integers >= 1."""
    _check_size(n, "system dimension n", 1)
    _check_size(p, "local dimension p", 1)


def _determinism_deviation(ops: np.ndarray, receivers: np.ndarray) -> np.ndarray:
    """|Gram - I| of the determinism relations of one protocol's (M, d, d)
    branch operators and receivers: [0] is sum L^dag L, [1] is sum L L^dag
    and [2:] is each W W^dag."""
    m, d, _ = ops.shape
    column = ops.reshape(m * d, d)  # the L_eta stacked vertically
    row = ops.swapaxes(0, 1).reshape(d, m * d)  # and side by side
    gram = np.concatenate([(column.conj().T @ column)[None],
                           (row @ row.conj().T)[None],
                           receivers @ receivers.conj().swapaxes(-1, -2)])
    gram.reshape(-1, d * d)[:, :: d + 1] -= 1  # minus I
    return np.abs(gram)


def _check_determinism(ops: np.ndarray, receivers: np.ndarray,
                       tol: float = DETERMINISM_TOL) -> float:
    """Determinism residual of one protocol's (M, d, d) branch operators and
    receivers: the worst entry of :func:`_determinism_deviation`, returned if
    it is at most tol and raised, with the worst of each relation, if not.
    """
    dev = _determinism_deviation(ops, receivers)
    worst = float(dev.max())
    if worst <= tol:  # false for NaN too
        return worst
    if not (np.all(np.isfinite(ops)) and np.all(np.isfinite(receivers))):
        raise ValueError("protocol is not deterministic: operators have "
                         "non-finite entries")
    raise ValueError(
        "protocol is not deterministic: "
        f"sum L^dag L residual {dev[0].max():.3e}, "
        f"sum L L^dag residual {dev[1].max():.3e}, "
        f"receiver unitarity residual {dev[2:].max():.3e}"
    )


def _schmidt_weights(weights, size: int, what: str) -> np.ndarray:
    """The Schmidt vector w / |w| of a caller's ``size`` weights w; raises
    ValueError, the message starting with ``what``, unless they are
    non-negative with a finite, nonzero norm and the quotient is a unit
    vector (a subnormal norm is rounded)."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != size:
        raise ValueError(f"{what} must hold {size} weights, got {w.size}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(w)
    if w.min() >= 0 and 0 < norm < np.inf:  # false for NaN too
        unit = w / norm
        if abs((unit**2).sum() - 1.0) <= 1e-10:
            return unit
    raise ValueError(f"{what} must be non-negative with a finite, nonzero "
                     f"norm, got {w.tolist()}")


def _check_resource(resource) -> None:
    """Raise TypeError unless ``resource`` is an :class:`AncillaResource`."""
    if not isinstance(resource, AncillaResource):
        raise TypeError("resource must be an AncillaResource, got "
                        f"{type(resource).__name__}")


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
    ``validate`` governs only the determinism check.  What depends on the
    protocol alone is built on first use and kept, read-only: the control
    superoperator, the simulator's process matrix and the numbers of
    :func:`~teleportlab.theorem.proof_report`, computed here from the
    operator stacks and the inner products G.
    """

    n: int
    resource: AncillaResource
    sender_projections: np.ndarray
    sender_unitaries: np.ndarray
    receiver_unitaries: np.ndarray
    validate: bool = field(default=True, repr=False)
    branches: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_resource(self.resource)
        counts = {len(self.sender_projections), len(self.sender_unitaries),
                  len(self.receiver_unitaries)}
        if len(counts) > 1:
            raise ValueError("sender and receiver operator counts must match")
        if counts == {0}:
            raise ValueError("protocol needs at least one branch")
        _check_size(self.n, "system dimension n", 1)
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

    def check_determinism(self, tol: float = DETERMINISM_TOL) -> float:
        """Validate the determinism invariants (relation 13); returns the worst
        residual, the proof report's ``relation13_max_residual``."""
        _check_tol(tol)
        return _check_determinism(self.branches, self.receiver_unitaries, tol)

    @cached_property
    def _control_superoperator(self) -> np.ndarray:
        """The control map as a read-only (N^4, N^4) matrix T, rows (o, o')
        and columns (i, i') with o, i the (b, a) legs of the output (x) input
        space: T = sum_j Lambda_j (x) conj(Lambda_j) over j = (eta, k, l),
        so that sum_j Lambda_j R Lambda_j^dag is T times R raveled.  Built
        from the control operators alone, never from the simulator's
        process matrix, so the two routes stay independent."""
        nn = self.n * self.n
        rows = _lambda_rows(self)  # [o, (j, i)]
        # [(o, i), j] times its adjoint, the sum over j in one GEMM
        a = rows.reshape(nn, -1, nn).transpose(0, 2, 1).reshape(nn * nn, -1)
        t = (a @ a.conj().T).reshape(nn, nn, nn, nn).transpose(0, 2, 1, 3)
        t = t.reshape(nn * nn, nn * nn)
        t.flags.writeable = False
        return t

    @cached_property
    def _process_matrix(self) -> np.ndarray:
        """The simulator's process matrix Z, read-only (N^4, N^4), from a
        channel's Choi state J, raveled [B, A, B', A'], to the end-to-end map,
        rows [o, o', X, X']: N (undoing J's 1/N) times the sum over [m, b, b']
        of the receiver map, sum_b'' W_m[(o b''), (B b)] conj W_m[(o' b''),
        (B' b')], times the sender map, sum_a' f[m, a', A, b, X] conj f[m, a',
        A', b', X'], f[m, a', A, b, X] = sum_a <A a'| L_m |X a> psi[a, b] with
        psi the pair on a (x) b.  Z has N^8 entries whatever M and P, against
        M*P^2*N^4 for each of the two maps, which are not kept."""
        n, p, m = self.n, self.local_dim, self.m
        d, nn = n * p, n * n
        f = self.branches.reshape(-1, p) @ self.resource.state().reshape(p, p)
        f = f.reshape(m, n, p, n, p).transpose(0, 2, 1, 4, 3)
        # [m, (A b X), (A' b' X')]: the sum over a', one matmul per branch
        snd = np.matmul(f.transpose(0, 2, 3, 4, 1).reshape(m, d * n, p),
                        f.conj().reshape(m, p, d * n)).reshape(m, n, p, n, n, p, n)
        snd = snd.transpose(0, 2, 5, 1, 4, 3, 6).reshape(-1, nn * nn)  # [m b b', A A' X X']
        # [m, (o B b), (o' B' b')]: the sum over b'', one matmul per branch
        w = self.receiver_unitaries.reshape(m, n, p, d)
        rcv = np.matmul(w.transpose(0, 1, 3, 2).reshape(m, n * d, p),
                        w.conj().transpose(0, 2, 1, 3).reshape(m, p, n * d))
        rcv = rcv.reshape(m, n, n, p, n, n, p).transpose(1, 4, 2, 5, 0, 3, 6).reshape(nn * nn, -1)
        # [o, o', B, B', A, A', X, X'] to rows [o, o', X, X'], columns [B, A, B', A']
        z = (rcv @ snd).reshape((n,) * 8).transpose(0, 1, 6, 7, 2, 4, 3, 5)
        z = z.reshape(nn * nn, -1)
        z *= n  # in place: one more N^8 array cost ~100 page faults a build
        z.flags.writeable = False
        return z

    @cached_property
    def _proof_numbers(self) -> tuple:
        """What :func:`~teleportlab.theorem.proof_report` reads of the
        protocol: the relation-13 residual (the residual of
        :meth:`check_determinism`), the Cauchy-Schwarz violation, the
        read-only branch scalars and, for M = 1, the contradiction sum (None
        otherwise)."""
        n, p, mu = self.n, self.local_dim, self.resource.mu
        g = _inner_products(mu, self.branches, self.receiver_unitaries, n, p)
        r13 = float(_determinism_deviation(self.branches, self.receiver_unitaries).max())
        # mu-weighted squared norms of the sender blocks <i|L|j> and receiver
        # blocks <k|W|l>, the stacks viewed as (M, N, P, N, P), rows (x, i)
        sq_a, sq_b = (np.abs(x.reshape(-1, n, p, n, p)) ** 2
                      for x in (self.branches, self.receiver_unitaries))
        product = np.einsum("eln,ekm->eklnm", np.einsum("i,enlji->eln", mu, sq_a),
                            np.einsum("p,eqkmp->ekm", mu, sq_b))
        cs = float(np.max(np.abs(g) ** 2 - product))
        q = min(n, p)
        betas = np.einsum("ekllk->e", g[:, :q, :q, :q, :q]) / (np.sqrt(n) * q * q)
        betas.flags.writeable = False
        lhs = None
        if self.m == 1:
            lhs = float(np.mean(np.sum(np.abs(g[0]) ** 2, axis=(0, 1, 2))))
        return r13, cs, betas, lhs


def _check_channel_dim(n: int, x, what: str = "channel") -> None:
    """Raise unless ``x``, a channel or (``what`` "Choi") its Choi state,
    acts on the n levels of a protocol, a search or a config."""
    if x.dim != n:
        raise ValueError(f"{what} dim {x.dim} does not match protocol dim {n}")


def _end_to_end(proto: ResourceProtocol, ch: KrausChannel) -> np.ndarray:
    """The protocol around one use of the channel as an (N^2, N^2) map, rows
    (o, o') and columns (X, X'): the kept process matrix times the channel's
    Choi state raveled."""
    _check_channel_dim(proto.n, ch)
    nn = proto.n * proto.n
    return (proto._process_matrix @ ch.choi_state.matrix.ravel()).reshape(nn, nn)


def _branch_probabilities(proto: ResourceProtocol, rho: np.ndarray) -> np.ndarray:
    """The branch probabilities tr L_m (rho (x) diag mu^2) L_m^dag of a run of
    the protocol on the state ``rho`` on A, diag mu^2 the pair's state on a."""
    n, p = proto.n, proto.local_dim
    ops = proto.branches.reshape(-1, n, p, n, p)  # [m, A, a', X, a]
    return np.einsum("mAqXa,XY,a,mAqYa->m", ops, rho, proto.resource.mu**2, ops.conj()).real


def apply_protocol(
    proto: ResourceProtocol, ch: KrausChannel, rho: np.ndarray
) -> np.ndarray:
    """Run the protocol around one use of the channel, tracing the ancillas:
    the end-to-end map times the state on A, raveled."""
    n = proto.n
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match protocol dim {n}")
    t = _end_to_end(proto, ch)
    if not np.isfinite(rho).all():
        raise ValueError("input state has non-finite entries")
    return (t @ rho.reshape(n * n, 1)).reshape(n, n)


def _blocks(ops: np.ndarray, n: int, p: int) -> np.ndarray:
    """[eta, i, j] -> the N x N block <i| op |j> of each (M, N*P, N*P) operator."""
    return ops.reshape(-1, n, p, n, p).transpose(0, 2, 4, 1, 3)


def _inner_products(mu: np.ndarray, ops: np.ndarray, receivers: np.ndarray,
                    n: int, p: int) -> np.ndarray:
    """G[..., eta, k, l, x, z] = sum_i mu_i <x| A[l,i] B[k,i] |z> from the
    (..., M, N*P, N*P) branch operators and receivers (leading axes of them
    and of mu index independent protocols): one GEMM per branch, L_eta with
    column (y, i) scaled by mu_i times W_eta with rows (y, i) and columns
    (k, z), viewed as G."""
    lead, d = receivers.shape[:-2], receivers.shape[-1]  # lead ends in M
    a = len(lead)  # W_eta's row and column legs start at axis a
    scaled = ops.reshape(lead + (d, n, p)) * mu[..., None, None, None, :]
    # W_eta, rows (y, k) and columns (z, i), relaid in one transpose
    right = receivers.reshape(lead + (n, p, n, p)).transpose(
        *range(a), a, a + 3, a + 1, a + 2).reshape(lead + (d, d))
    # rows (x, l), columns (k, z)
    g = scaled.reshape(lead + (d, d)) @ right
    return g.reshape(lead + (n, p, p, n)).swapaxes(-4, -2)


def _overlap(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """<psi0| sum Lam R Lam^dag |psi0> from G, clipped to [0, 1]: Lam_ekl^dag
    psi0 = vec(G_ekl^dag)/sqrt(N), the conjugate of u[(z, x)] = G[x, z]."""
    n = g.shape[-1]
    u = g.swapaxes(-1, -2).reshape(g.shape[:-5] + (-1, n * n))
    val = u @ r
    val *= u.conj()
    return (val.sum(axis=(-2, -1)).real / n).clip(0.0, 1.0)


def block_operators(proto: ResourceProtocol) -> tuple:
    """The ancilla-indexed N x N blocks a[eta, i, j] and b[eta, k, l] of all
    sender and receiver ops, as the pair (a, b); see the module docstring."""
    n, p = proto.n, proto.local_dim
    return (_blocks(proto.branches, n, p),
            _blocks(proto.receiver_unitaries, n, p))


def _lambda_rows(proto: ResourceProtocol) -> np.ndarray:
    """Control operators Lambda[eta, k, l] = sum_i mu_i B[k,i] (x) A[l,i]^T
    side by side, as a read-only (N^2, M*P*P*N^2) array with rows
    (b_out, a_out) and columns (eta, k, l, b_in, a_in)."""
    n, p = proto.n, proto.local_dim
    a = _blocks(proto.branches, n, p)
    b = _blocks(proto.receiver_unitaries, n, p)
    # B[k,i] carries (b_out, b_in), A[l,i]^T carries (a_out, a_in) with
    # A^T[x, y] = A[y, x].  Each term is (mu_i B) A, the product order of
    # the three-operand einsum, so the bits match it; a GEMM form does not.
    mu = proto.resource.mu
    rows = np.einsum("ekibc,elida->baeklcd", b * mu[:, None, None], a)
    rows = rows.reshape(n * n, -1)
    rows.flags.writeable = False
    return rows


def lambda_operators(proto: ResourceProtocol) -> np.ndarray:
    """Control operators Lambda[eta, k, l] = sum_i mu_i B[k,i] (x) A[l,i]^T,
    on the output (x) input space, as a freshly built, read-only
    (M, P, P, N^2, N^2) array."""
    nn, p = proto.n * proto.n, proto.local_dim
    rows = _lambda_rows(proto).reshape(nn, proto.m, p, p, nn)
    return rows.transpose(1, 2, 3, 0, 4)


def control_map(proto: ResourceProtocol, r: ChoiMatrix) -> ChoiMatrix:
    """Transform a Choi state through the protocol's control operators."""
    _check_channel_dim(proto.n, r, "Choi")
    nn = proto.n * proto.n
    # sum_j Lam_j R Lam_j^dag: the kept superoperator on R raveled
    out = (proto._control_superoperator @ r.matrix.ravel()).reshape(nn, nn)
    return ChoiMatrix.from_matrix(out, tol=1e-8)


def effective_choi(proto: ResourceProtocol, ch: KrausChannel) -> ChoiMatrix:
    """Choi state of the end-to-end map, by direct simulation of the protocol.

    Independent of the control-operator route: the simulator's end-to-end
    map (the kept process matrix times the channel's Choi state), rows
    (o, o') and columns (X, X'), realigned to rows (o, X) and columns
    (o', X') and scaled by 1/N, is sum_ij E(|i><j|) (x) |i><j| / N.
    """
    n = proto.n
    t = _end_to_end(proto, ch).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    # times the entry 1/N of |psi_0><psi_0|, which rounds as the product with
    # (1/N) I does, where a division by N would not
    out = t.reshape(n * n, n * n) * _psi0_projector(n)[0, 0]
    return ChoiMatrix.from_matrix(out, tol=1e-8)


def residual(proto: ResourceProtocol, ch: KrausChannel) -> float:
    """Frobenius distance of the controlled Choi state from the ideal target."""
    return _residual(control_map(proto, choi(ch)))


def _residual(controlled: ChoiMatrix) -> float:
    """:func:`residual` from the controlled Choi state."""
    target = _psi0_projector(controlled.dim)
    return float(np.linalg.norm(controlled.matrix - target))


def target_overlap(proto: ResourceProtocol, r: ChoiMatrix) -> float:
    """Overlap of the controlled Choi state with the ideal target."""
    _check_channel_dim(proto.n, r, "Choi")
    g = _inner_products(proto.resource.mu, proto.branches,
                        proto.receiver_unitaries, proto.n, proto.local_dim)
    return float(_overlap(g, r.matrix))


def entanglement_fidelity(proto: ResourceProtocol, ch: KrausChannel) -> float:
    """Overlap of the controlled Choi state with the ideal target; 1 iff faithful."""
    return target_overlap(proto, choi(ch))


def bare_protocol(n: int, mu=(1.0,)) -> ResourceProtocol:
    """Single-branch protocol that just sends the state through the channel;
    the pair's Schmidt vector is ``mu``, its P the length of ``mu``."""
    p = np.size(mu)
    _check_dims(n, p)
    eye = np.eye(n * p, dtype=complex)[None]
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
    _check_size(m, "branch count", 1, dim)
    bounds = np.linspace(0, dim, m + 1).astype(int)
    return basis_projections(np.searchsorted(bounds, np.arange(dim), side="right") - 1)


def random_protocol(n: int, local_dim: int, m: int, seed) -> ResourceProtocol:
    """Random deterministic protocol: Haar sender rotation followed by a
    complete projective measurement with m outcomes, Haar receivers, and a
    random Schmidt vector.  Deterministic per seed.  Requires m <= N*P.
    """
    _check_dims(n, local_dim)
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


_PROTOCOL_KEYS = {
    "N": _INTEGER, "P": _INTEGER, "M": _INTEGER, "mu": _NUMBERS,
    "sender": (lambda v: type(v) is list and all(type(e) is dict for e in v),
               "a list of JSON objects"),
    "receiver": _MATRICES,
}
_SENDER_KEYS = {"projection": _MATRIX, "unitary": _MATRIX}


def load_protocol(path, validate: bool = True) -> ResourceProtocol:
    """Read a protocol JSON file, validating determinism by default."""
    with open(path) as fh:
        data = _read_json(json.load(fh), _PROTOCOL_KEYS)
    sender = [_read_json(entry, _SENDER_KEYS, f"sender[{i}].")
              for i, entry in enumerate(data["sender"])]
    for key, declared in (("mu", "P"), ("sender", "M"), ("receiver", "M")):
        if len(data[key]) != data[declared]:
            raise ValueError(f"{key!r} has length {len(data[key])}, "
                             f"but {declared!r} is {data[declared]}")
    return ResourceProtocol(
        n=data["N"],
        resource=AncillaResource(mu=data["mu"]),
        sender_projections=[matrix_from_pairs(e["projection"]) for e in sender],
        sender_unitaries=[matrix_from_pairs(e["unitary"]) for e in sender],
        receiver_unitaries=[matrix_from_pairs(w) for w in data["receiver"]],
        validate=validate,
    )


def save_protocol(proto: ResourceProtocol, path) -> None:
    """Write a protocol to a JSON file."""
    with open(path, "w") as fh:
        json.dump(protocol_to_dict(proto), fh, indent=2)
