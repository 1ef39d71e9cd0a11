"""Dense complex linear algebra and state utilities for small Hilbert spaces.

Everything here operates on plain numpy arrays: state vectors are 1-D complex
arrays, operators and density matrices are 2-D complex arrays.  All functions
are pure; randomness only enters through explicitly passed seeds.
"""

from __future__ import annotations

import json

import numpy as np


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more vectors or matrices."""
    out = np.asarray(factors[0], dtype=complex)
    for factor in factors[1:]:
        out = np.kron(out, np.asarray(factor, dtype=complex))
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian conjugate."""
    return np.asarray(m).conj().T


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a (not necessarily normalized) vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors except ``keep``.

    Parameters
    ----------
    mat : square matrix on the full product space, factor ordering row-major.
    dims : dimension of each factor; their product must match ``mat``.
    keep : index or iterable of factor indices to retain (original order).
    """
    dims = [int(d) for d in dims]
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted(int(k) for k in keep)
    n = len(dims)
    total = int(np.prod(dims))
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (total, total):
        raise ValueError(
            f"matrix shape {mat.shape} does not match factor dims {dims}"
        )
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")

    row = [chr(ord('a') + i) for i in range(n)]
    col = [row[i] if i not in keep else chr(ord('a') + n + i) for i in range(n)]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    spec = ''.join(row) + ''.join(col) + '->' + ''.join(out)
    reduced = np.einsum(spec, mat.reshape(tuple(dims) * 2))
    d_keep = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(d_keep, d_keep)


def factor_permutation(dims, perm) -> np.ndarray:
    """Unitary permuting tensor factors: |i_0,..,i_{n-1}> -> |i_perm[0],..>."""
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    out_dims = tuple(dims[p] for p in perm)
    d = int(np.prod(dims))
    s = np.zeros((d, d))
    for src, idx in enumerate(np.ndindex(*dims)):
        dst = int(np.ravel_multi_index(tuple(idx[p] for p in perm), out_dims))
        s[dst, src] = 1.0
    return s


def embed_operator(op: np.ndarray, dims, targets) -> np.ndarray:
    """Embed an operator acting on the listed factors into the full space.

    ``op`` acts on the tensor product of the target factors in the order they
    are listed; identity is applied on all remaining factors.
    """
    dims = tuple(int(d) for d in dims)
    targets = [int(t) for t in targets]
    rest = [i for i in range(len(dims)) if i not in targets]
    s = factor_permutation(dims, targets + rest)
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    return s.T @ np.kron(np.asarray(op, dtype=complex), np.eye(d_rest)) @ s


def schmidt(psi: np.ndarray, dim_a: int, dim_b: int) -> tuple:
    """Schmidt decomposition (coefficients, basis_a, basis_b) of a bipartite
    pure state.

    The coefficients are non-negative and sorted descending; ``basis_a`` and
    ``basis_b`` hold the corresponding orthonormal local vectors as columns.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != dim_a * dim_b:
        raise ValueError(
            f"state dim {psi.size} does not factor as {dim_a}x{dim_b}"
        )
    coeff = psi.reshape(dim_a, dim_b)
    u, s, vh = np.linalg.svd(coeff)
    r = min(dim_a, dim_b)
    return s[:r], u[:, :r], vh[:r, :].T


def _matrix_sqrt(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _pair(rho: np.ndarray, sigma: np.ndarray) -> tuple:
    """Two matrices as complex arrays; raises unless their shapes agree."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return rho, sigma


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Uses the squared convention throughout the package, so for pure states
    F(|a>, |b>) = |<a|b>|^2.
    """
    rho, sigma = _pair(rho, sigma)
    sqrt_rho = _matrix_sqrt(rho)
    inner = _matrix_sqrt(sqrt_rho @ sigma @ sqrt_rho)
    f = float(np.real(np.trace(inner)) ** 2)
    return float(np.clip(f, 0.0, 1.0))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma."""
    diff = np.subtract(*_pair(rho, sigma))
    vals = np.linalg.eigvalsh((diff + dagger(diff)) / 2.0)
    return float(0.5 * np.sum(np.abs(vals)))


def maximally_entangled(n: int) -> np.ndarray:
    """State vector (1/sqrt(N)) sum_i |i>|i> on an N (x) N space."""
    if n < 2:
        raise ValueError(f"local dimension must be >= 2, got {n}")
    vec = np.zeros(n * n, dtype=complex)
    vec[:: n + 1] = 1.0 / np.sqrt(n)
    return vec


def random_pure(n: int, seed) -> np.ndarray:
    """Haar-random pure state of dimension n, deterministic per seed."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return amps / np.linalg.norm(amps)


def random_state(n: int, seed) -> np.ndarray:
    """Random density matrix: partial trace of a Haar pure state on n (x) n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    purification = random_pure(n * n, seed)
    return partial_trace(projector(purification), (n, n), keep=0)


def _haar_isometry(rows: int, cols: int, rng) -> np.ndarray:
    """Haar-random (rows, cols) isometry via phase-fixed QR of a Ginibre matrix."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-random unitary."""
    return _haar_isometry(n, n, rng)


def fix_global_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-magnitude entry is real non-negative."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    pivot = v[int(np.argmax(np.abs(v)))]
    if abs(pivot) == 0.0:
        return v.copy()
    return v * (pivot.conjugate() / abs(pivot))


def _operator_stack(ops, d: int, kind: str, expected: str) -> np.ndarray:
    """An owned, read-only (M, d, d) complex copy of a family of d x d operators.

    Raises ``"<kind> shape <shape> does not match <expected>"`` naming the
    first operator of another shape, also when the shapes differ among the
    operators so that they do not stack at all.
    """
    try:
        stack = np.array(ops, dtype=complex)
    except ValueError:  # ragged: the operators differ in shape
        stack = np.empty(0)
    if stack.shape[1:] != (d, d):
        bad = next(np.shape(op) for op in ops if np.shape(op) != (d, d))
        raise ValueError(f"{kind} shape {bad} does not match {expected}")
    stack.flags.writeable = False
    return stack


def assert_pure_state(vec: np.ndarray, tol: float = 1e-12) -> None:
    """Raise ValueError if the vector is not normalized or not finite."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("pure state has non-finite amplitudes")
    dev = abs(float(np.vdot(v, v).real) - 1.0)
    if dev > tol:
        raise ValueError(f"pure state squared-norm deviates from 1 by {dev:.3e}")


def _check_state(matrix: np.ndarray, what: str, tol: float) -> None:
    """Raise ValueError unless the square complex ``matrix`` is a state: finite,
    Hermitian, positive semidefinite and of trace 1, each within ``tol`` and
    checked in that order; the message starts with ``what``."""
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


def assert_density_matrix(rho: np.ndarray, tol: float = 1e-12) -> None:
    """Raise ValueError naming the violated density-matrix invariant."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    _check_state(rho, "density matrix", tol)


def matrix_to_pairs(m: np.ndarray) -> list:
    """Encode a complex matrix as nested lists with [re, im] entries."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_pairs(data) -> np.ndarray:
    """Decode a nested [re, im] list into a complex matrix."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(
            f"matrix JSON must be rows of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _is_number(x) -> bool:
    # JSON true is a bool, and an integer past the float range cannot convert
    return type(x) is float or type(x) is int and abs(x) <= 1e308


# Checks shared by the key tables of ``_read_json``: (check, what it asks for)
_INTEGER = (lambda v: type(v) is int, "an integer")
_NUMBERS = (lambda v: type(v) is list and all(map(_is_number, v)), "a list of numbers")
_MATRIX = (lambda v: type(v) is list and len(v) > 0 and all(
    type(row) is list and len(row) == len(v) and all(
        type(z) is list and len(z) == 2 and all(map(_is_number, z))
        for z in row) for row in v), "a square matrix of [re, im] pairs")
_MATRICES = (lambda v: type(v) is list and all(map(_MATRIX[0], v)),
             "a list of square matrices of [re, im] pairs")


def _brief(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _read_json(source, keys: dict, where: str = "") -> dict:
    """The values of a parsed JSON object by key, defaults filled in: ``keys``
    maps each allowed key to ``(check, wanted[, default])``, and a key with no
    default is required.  A non-object, an unknown or missing key, or a value
    its check rejects raises one ValueError naming the field, prefixed by
    ``where`` (e.g. ``"sender[0]."``)."""
    if type(source) is not dict:
        raise ValueError(f"expected a JSON object, got {_brief(source)}")
    unknown = [key for key in source if key not in keys]
    if unknown:
        raise ValueError(f"unknown key {where + unknown[0]!r}; "
                         f"the keys are {', '.join(keys)}")
    values = {}
    for key, (check, wanted, *default) in keys.items():
        if key not in source and not default:
            raise ValueError(f"missing key {where + key!r}")
        values[key] = source.get(key, *default)
        if not check(values[key]):
            raise ValueError(
                f"{where + key!r} must be {wanted}, got {_brief(values[key])}")
    return values
