import numpy as np
import pytest
from dense_reference import swap_matrix

from teleportlab.qmath import (
    assert_density_matrix,
    assert_pure_state,
    embed_operator,
    factor_permutation,
    fidelity,
    fix_global_phase,
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
        assert_pure_state(random_pure(5, seed))


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
