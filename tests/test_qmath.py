import re

import numpy as np
import pytest
from dense_reference import swap_matrix

from teleportlab.channels import (KrausChannel, depolarizing, identity_channel,
                                  load_channel, random_channel, weyl_operator)
from teleportlab.optimize import (OptimizationConfig, qt_parameterization,
                                  vec_to_hermitian, zero_parameterization)
from teleportlab.protocol import (AncillaResource, ResourceProtocol, bare_protocol,
                                  load_protocol, random_protocol)
from teleportlab.qmath import (
    _psi0_projector,
    assert_density_matrix,
    embed_operator,
    factor_permutation,
    fidelity,
    fix_global_phase,
    haar_unitary,
    matrix_from_pairs,
    matrix_to_pairs,
    maximally_entangled,
    partial_trace,
    projector,
    random_pure,
    random_state,
    schmidt,
    tensor,
    trace_distance,
)
from teleportlab.teleport import bell_basis, correction_unitary, qt_protocol
from teleportlab.theorem import entanglement_bound

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_tensor_identity_case():
    np.testing.assert_allclose(tensor(I2, I2), np.eye(4), atol=1e-15)


def test_tensor_scalar_identity():
    b = np.array([[1, 2j], [3, 4]], dtype=complex)
    np.testing.assert_allclose(tensor(np.eye(1), b), b, atol=1e-15)


def test_tensor_flips_basis_state():
    e00 = np.zeros(4)
    e00[0] = 1.0
    e11 = np.zeros(4)
    e11[3] = 1.0
    np.testing.assert_allclose(tensor(X, X) @ e00, e11, atol=1e-15)


def test_tensor_associative_bilinear():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(3))
        np.testing.assert_allclose(
            tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-12
        )
        s = rng.standard_normal()
        np.testing.assert_allclose(tensor(s * a, b), s * tensor(a, b), atol=1e-12)
        np.testing.assert_allclose(
            tensor(a + b, c), tensor(a, c) + tensor(b, c), atol=1e-12
        )


def test_partial_trace_of_maximally_entangled():
    psi0 = projector(maximally_entangled(2))
    for keep in (0, 1):
        np.testing.assert_allclose(
            partial_trace(psi0, (2, 2), keep), np.eye(2) / 2, atol=1e-14
        )


def test_partial_trace_product_state():
    rho = random_state(2, seed=1)
    sigma = random_state(3, seed=2)
    np.testing.assert_allclose(
        partial_trace(tensor(rho, sigma), (2, 3), keep=0), rho, atol=1e-13
    )
    np.testing.assert_allclose(
        partial_trace(tensor(rho, sigma), (2, 3), keep=1), sigma, atol=1e-13
    )


def test_partial_trace_preserves_trace():
    rho = random_state(6, seed=3)
    reduced = partial_trace(rho, (2, 3), keep=1)
    assert abs(np.trace(reduced) - 1.0) < 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 3), keep=0)


@pytest.mark.parametrize("keep,message", [
    ([0, 0], r"keep index 0 is repeated in \[0, 0\]"),
    ([2, 0, 2], r"keep index 2 is repeated in \[0, 2, 2\]"),
    ([0, 3], r"keep index must lie in 0\.\.2, got 3"),
])
def test_partial_trace_rejects_repeated_or_out_of_range_keep(keep, message):
    with pytest.raises(ValueError, match=message):
        partial_trace(np.eye(12), (2, 3, 2), keep=keep)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kept_psi0_projector_is_shared_read_only_and_exact(n):
    kept = _psi0_projector(n)
    assert _psi0_projector(n) is kept
    np.testing.assert_array_equal(kept, projector(maximally_entangled(n)))
    assert kept.dtype == complex
    with pytest.raises(ValueError, match="read-only"):
        kept[0, 0] = 0.0


def test_schmidt_maximally_entangled():
    coefficients, _, _ = schmidt(maximally_entangled(2), 2, 2)
    np.testing.assert_allclose(
        coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12
    )


def test_schmidt_product_state():
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0  # |0> (x) |1>
    coefficients, _, _ = schmidt(psi, 2, 2)
    np.testing.assert_allclose(coefficients, [1.0, 0.0], atol=1e-12)


def test_schmidt_partial_entanglement():
    theta = np.pi / 8
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.cos(theta)
    psi[3] = np.sin(theta)
    coefficients, _, _ = schmidt(psi, 2, 2)
    np.testing.assert_allclose(
        coefficients, [np.cos(theta), np.sin(theta)], atol=1e-12
    )


def test_schmidt_reconstruction_random():
    for seed in range(5):
        psi = random_pure(6, seed)
        coefficients, basis_a, basis_b = schmidt(psi, 2, 3)
        rebuilt = sum(c * np.kron(basis_a[:, k], basis_b[:, k])
                      for k, c in enumerate(coefficients))
        np.testing.assert_allclose(
            fix_global_phase(rebuilt), fix_global_phase(psi), atol=1e-10
        )
        gram_a = basis_a.conj().T @ basis_a
        gram_b = basis_b.conj().T @ basis_b
        np.testing.assert_allclose(gram_a, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(gram_b, np.eye(2), atol=1e-10)


def test_schmidt_dim_mismatch():
    with pytest.raises(ValueError):
        schmidt(random_pure(4, 0), 2, 3)


def test_fidelity_identity():
    rho = random_state(3, seed=4)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12


def test_fidelity_orthogonal_pure_states():
    zero = projector(np.array([1, 0]))
    one = projector(np.array([0, 1]))
    assert fidelity(zero, one) < 1e-12


def test_fidelity_pure_vs_mixed():
    zero = projector(np.array([1, 0]))
    assert abs(fidelity(zero, np.eye(2) / 2) - 0.5) < 1e-12


def test_fidelity_symmetric_and_bounded():
    for seed in range(5):
        rho = random_state(2, seed)
        sigma = random_state(2, seed + 100)
        f = fidelity(rho, sigma)
        assert abs(f - fidelity(sigma, rho)) < 1e-10
        assert 0.0 <= f <= 1.0


def test_fidelity_dim_mismatch():
    with pytest.raises(ValueError):
        fidelity(np.eye(2) / 2, np.eye(3) / 3)
    for shape in [(2, 3), (3,), (2, 2, 2)]:
        with pytest.raises(ValueError, match=re.escape(
                f"matrix must be square, got shape {shape}")):
            fidelity(np.ones(shape), np.ones(shape))


def test_maximally_entangled_explicit():
    np.testing.assert_allclose(
        maximally_entangled(2), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
    )
    vec3 = np.zeros(9)
    vec3[[0, 4, 8]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(maximally_entangled(3), vec3, atol=1e-15)


def test_maximally_entangled_uniform_schmidt():
    for n in (2, 3, 4):
        coefficients, _, _ = schmidt(maximally_entangled(n), n, n)
        np.testing.assert_allclose(
            coefficients, np.full(n, 1 / np.sqrt(n)), atol=1e-12
        )


def test_maximally_entangled_rejects_small_dim():
    with pytest.raises(ValueError):
        maximally_entangled(1)


def test_random_generators_deterministic():
    np.testing.assert_array_equal(random_pure(4, 7), random_pure(4, 7))
    np.testing.assert_array_equal(random_state(3, 7), random_state(3, 7))


def test_random_state_valid():
    for seed in range(5):
        assert_density_matrix(random_state(2, seed))
        psi = random_pure(5, seed)
        assert abs(np.vdot(psi, psi) - 1) < 1e-12


def test_haar_average_is_maximally_mixed():
    mean = np.zeros((2, 2), dtype=complex)
    count = 10_000
    for seed in range(count):
        mean += projector(random_pure(2, seed))
    mean /= count
    assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.05


def test_embed_operator_matches_kron():
    rng = np.random.default_rng(5)
    op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(
        embed_operator(op, (2, 3), [0]), np.kron(op, np.eye(3)), atol=1e-13
    )
    np.testing.assert_allclose(
        embed_operator(op, (3, 2), [1]), np.kron(np.eye(3), op), atol=1e-13
    )


def test_embed_operator_two_targets():
    rng = np.random.default_rng(6)
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # acting on factors (0, 2) of a 2x3x2 space must commute with middle ops
    full = embed_operator(op, (2, 3, 2), [0, 2])
    mid = embed_operator(np.diag([1.0, 2.0, 3.0]), (2, 3, 2), [1])
    np.testing.assert_allclose(full @ mid, mid @ full, atol=1e-12)


def test_swap_matrix_action():
    swap = swap_matrix(2, 2)
    v = np.kron(np.array([1, 0]), np.array([0, 1]))  # |0>|1>
    np.testing.assert_allclose(swap @ v, np.kron(np.array([0, 1]), np.array([1, 0])))


def test_factor_permutation_unitary():
    s = factor_permutation((2, 3, 2), (2, 0, 1))
    np.testing.assert_allclose(s @ s.T, np.eye(12), atol=1e-15)


def test_trace_distance_basics():
    zero = projector(np.array([1, 0]))
    one = projector(np.array([0, 1]))
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12
    assert trace_distance(zero, zero) < 1e-14
    with pytest.raises(ValueError, match=r"dimension mismatch: \(2, 2\) vs \(1, 1\)"):
        trace_distance(np.eye(2) / 2, [[1.0]])
    for shape in [(2, 3), (3,)]:
        with pytest.raises(ValueError, match=re.escape(
                f"matrix must be square, got shape {shape}")):
            trace_distance(np.ones(shape), np.ones(shape))


def test_assert_density_matrix_rejections():
    with pytest.raises(ValueError, match="Hermitian"):
        assert_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        assert_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        assert_density_matrix(np.diag([1.5, -0.5]))


def test_matrix_pairs_round_trip():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(matrix_from_pairs(matrix_to_pairs(m)), m, atol=0)
    with pytest.raises(ValueError):
        matrix_from_pairs([[1.0, 2.0], [3.0, 4.0]])


_EYE2 = np.eye(2)[None]
# Every size, count and index a caller passes in: the call on one value, the
# name its message starts with, the range low..high (high None: unbounded),
# a value in range and a fractional one
_SIZE_SITES = {
    "maximally_entangled": (maximally_entangled, "local dimension", 2, None, 2, 2.5),
    "random_pure": (lambda v: random_pure(v, 0), "dimension", 1, None, 2, 2.5),
    "random_state": (lambda v: random_state(v, 0), "dimension", 1, None, 2, 2.5),
    "partial_trace-dim": (lambda v: partial_trace(np.eye(4) / 4, (v, 2), 0),
                          "factor dimension", 1, None, 2, 2.7),
    "partial_trace-keep": (lambda v: partial_trace(np.eye(4) / 4, (2, 2), v),
                           "keep index", 0, 1, 0, 0.9),
    "schmidt-dim_a": (lambda v: schmidt(maximally_entangled(2), v, 2),
                      "dim_a", 1, None, 2, 2.5),
    "schmidt-dim_b": (lambda v: schmidt(maximally_entangled(2), 2, v),
                      "dim_b", 1, None, 2, 2.5),
    # a channel keeps a d^2 x d^2 Choi state, d up to SEARCH_DIM_MAX = 64
    "KrausChannel": (lambda v: KrausChannel(dim=v, kraus=_EYE2),
                     "channel dimension", 2, 64, 2, 2.5),
    "depolarizing": (lambda v: depolarizing(0.3, v), "dimension", 2, 64, 2, 2.5),
    "identity_channel": (identity_channel, "channel dimension", 2, 64, 2, 2.5),
    "weyl_operator-n": (lambda v: weyl_operator(v, 0, 1), "Weyl dimension n",
                        1, None, 2, 2.5),
    "weyl_operator-shift_phase": (lambda v: weyl_operator(2, v, 0), "Weyl phase index",
                                  0, 1, 1, 0.5),
    "weyl_operator-shift": (lambda v: weyl_operator(2, 0, v), "Weyl shift index",
                            0, 1, 1, 0.5),
    "haar_unitary": (lambda v: haar_unitary(v, 0), "unitary dimension n", 1, None, 2, 2.5),
    "random_channel-n": (lambda v: random_channel(v, 1, 0),
                         "channel dimension", 2, 64, 2, 2.5),
    "random_channel-rank": (lambda v: random_channel(2, v, 0), "rank", 1, 4, 2, 2.5),
    # a protocol keeps two N^8 maps: N up to isqrt(64) = 8, then P up to 64 // N
    "bare_protocol-n": (bare_protocol, "system dimension n", 1, 8, 2, 2.5),
    "random_protocol-n": (lambda v: random_protocol(v, 1, 1, 0),
                          "system dimension n", 1, 8, 2, 2.5),
    "random_protocol-p": (lambda v: random_protocol(2, v, 1, 0),
                          "local dimension p", 1, 32, 2, 2.5),
    "random_protocol-m": (lambda v: random_protocol(2, 2, v, 0),
                          "branch count", 1, 4, 2, 2.5),
    # a search is a protocol, and holds N P <= SEARCH_DIM_MAX = 64: n up to 8,
    # p up to 64 // n
    "zero_parameterization-n": (lambda v: zero_parameterization(v, 1, "full"),
                                "system dimension n", 1, 8, 2, 2.5),
    "zero_parameterization-p": (lambda v: zero_parameterization(2, v, "full"),
                                "local dimension p", 1, 32, 2, 2.5),
    "zero_parameterization-p-n3": (lambda v: zero_parameterization(3, v, "ancilla"),
                                   "local dimension p", 1, 21, 2, 2.5),
    # and qt_parameterization N = P up to isqrt(64) = 8
    "qt_parameterization": (qt_parameterization, "system dimension n", 1, 8, 2, 2.5),
    "vec_to_hermitian-d": (lambda v: vec_to_hermitian(np.zeros(4), v),
                           "matrix dimension d", 1, None, 2, 2.5),
    "ResourceProtocol": (lambda v: ResourceProtocol(
        n=v, resource=AncillaResource(mu=[1.0]), sender_projections=_EYE2,
        sender_unitaries=_EYE2, receiver_unitaries=_EYE2),
        "system dimension n", 1, 8, 2, 2.5),
    # the N^2 x N^2 Bell states and corrections: N up to SEARCH_DIM_MAX = 64
    "bell_basis": (bell_basis, "local dimension", 2, 64, 2, 2.5),
    "correction_unitary": (lambda v: correction_unitary(2, v),
                           "outcome index", 0, 3, 1, 1.5),
    "correction_unitary-n": (lambda v: correction_unitary(v, 0),
                             "local dimension", 2, 64, 2, 2.5),
    # qt_protocol's N^8 process matrix: N up to isqrt(64) = 8
    "qt_protocol": (qt_protocol, "teleportation dimension N", 2, 8, 2, 2.5),
    "entanglement_bound-n": (lambda v: entanglement_bound(AncillaResource(mu=[1.0]), v),
                             "system dimension n", 1, None, 2, 2.5),
    "OptimizationConfig-evaluation_budget": (lambda v: OptimizationConfig(v, 1, 0),
                                             "evaluation_budget", 1, None, 40, 40.5),
    "OptimizationConfig-restarts": (lambda v: OptimizationConfig(40, v, 0),
                                    "restarts", 1, None, 2, 2.5),
    "OptimizationConfig-seed": (lambda v: OptimizationConfig(40, 1, v),
                                "seed", 0, None, 0, 0.5),
}


_HALF = np.eye(2, dtype=complex) / 2


@pytest.mark.parametrize("call, message", [
    (lambda bad: fidelity(bad, _HALF), "rho"),
    (lambda bad: fidelity(_HALF, bad), "sigma"),
    (lambda bad: trace_distance(bad, _HALF), "rho"),
    (lambda bad: trace_distance(_HALF, bad), "sigma"),
    (lambda bad: schmidt(bad.reshape(-1), 2, 2), "psi"),
], ids=["fidelity-rho", "fidelity-sigma", "trace_distance-rho",
        "trace_distance-sigma", "schmidt"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_metric_helpers_reject_non_finite_input(call, message, value):
    # a nan or an inf raises, naming the input, before any RuntimeWarning
    # (which the suite's filter turns into an error)
    bad = _HALF.copy()
    bad[1, 1] = value
    with pytest.raises(ValueError, match=f"^{message} has non-finite entries$"):
        call(bad)


def _size_cases():
    for site, (call, what, low, high, good, fraction) in _SIZE_SITES.items():
        for kind, value in [("float", float(good)), ("fraction", fraction),
                            ("bool", True)]:
            yield pytest.param(call, value, TypeError,
                               f"{what} must be an integer, got {value!r}",
                               id=f"{site}-{kind}")
        bounds = f"be >= {low}" if high is None else f"lie in {low}..{high}"
        for kind, value in [("below", low - 1), ("above", None if high is None else high + 1)]:
            if value is not None:
                yield pytest.param(call, value, ValueError,
                                   f"{what} must {bounds}, got {value}",
                                   id=f"{site}-{kind}")
        yield pytest.param(call, np.int64(good), None, None, id=f"{site}-int64")


@pytest.mark.parametrize("call, value, error, message", _size_cases())
def test_every_size_is_checked_where_it_is_passed_in(call, value, error, message):
    # a float, even an integral one, and a bool are no size; a numpy integer is
    if error is None:
        call(value)
        return
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("load", [load_channel, load_protocol])
def test_a_file_nested_too_deep_to_parse_raises_one_value_error(tmp_path, load):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ValueError, match="^JSON nests too deeply to parse$"):
        load(path)
