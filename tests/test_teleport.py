import numpy as np
import pytest

from teleportlab.channels import depolarizing, identity_channel, random_channel
from teleportlab.qmath import (
    fidelity,
    maximally_entangled,
    projector,
    random_pure,
    random_state,
    swap_matrix,
    trace_distance,
)
from teleportlab.teleport import (
    bell_basis,
    bell_rotation,
    bell_state,
    correction_unitary,
    qt_protocol,
    teleport,
    teleport_detailed,
)


def test_bell_state_eta0_is_maximally_entangled():
    np.testing.assert_allclose(bell_state(2, 0), maximally_entangled(2), atol=1e-15)


def test_bell_state_eta1_shift():
    expected = np.array([0, 1, 1, 0]) / np.sqrt(2)  # (|01> + |10>)/sqrt2
    np.testing.assert_allclose(bell_state(2, 1), expected, atol=1e-15)


def test_bell_projectors_match_states():
    np.testing.assert_allclose(
        projector(bell_basis(2)[0]), projector(maximally_entangled(2)), atol=1e-15
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bell_basis_orthonormal_complete(n):
    basis = bell_basis(n)
    gram = np.array([
        [np.vdot(u, v) for v in basis] for u in basis
    ])
    np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-12)
    total = sum(projector(v) for v in basis)
    np.testing.assert_allclose(total, np.eye(n * n), atol=1e-12)


def test_bell_basis_rejects_small_dim():
    with pytest.raises(ValueError):
        bell_basis(1)


def test_correction_unitary_eta0_is_swap():
    np.testing.assert_allclose(correction_unitary(2, 0), swap_matrix(2, 2), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_correction_unitary_is_unitary(n):
    for eta in range(n * n):
        u = correction_unitary(n, eta)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n * n), atol=1e-12)


def test_correction_unitary_eta2_phases():
    # eta=2 -> (n, m) = (1, 0): phase exp(i pi k) on the b index, then swap
    expected = swap_matrix(2, 2) @ np.kron(np.eye(2), np.diag([1.0, -1.0]))
    np.testing.assert_allclose(correction_unitary(2, 2), expected, atol=1e-14)


def test_correction_unitary_rejects_bad_eta():
    with pytest.raises(ValueError):
        correction_unitary(2, 4)


def test_teleport_through_fully_depolarizing():
    rho = random_state(2, seed=0)
    out = teleport(rho, depolarizing(1.0))
    assert fidelity(out, rho) >= 1 - 1e-9


def test_teleport_qutrit_through_random_channel():
    rho = random_state(3, seed=1)
    out = teleport(rho, random_channel(3, 9, seed=2))
    assert fidelity(out, rho) >= 1 - 1e-9


def test_teleport_maximally_mixed():
    out = teleport(np.eye(2) / 2, depolarizing(0.8))
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


def test_teleport_random_triples():
    idx = 0
    for n in (2, 3):
        for seed in range(10):
            rho = random_state(n, seed=idx)
            ch = random_channel(n, (idx % (n * n)) + 1, seed=idx + 1000)
            assert trace_distance(teleport(rho, ch), rho) < 1e-9
            idx += 1


def test_teleport_dim_mismatch():
    with pytest.raises(ValueError):
        teleport(np.eye(3) / 3, depolarizing(0.5))


def test_branch_probabilities_uniform():
    for n in (2, 3):
        rho = random_state(n, seed=n)
        _, probs = teleport_detailed(rho, random_channel(n, 2, seed=5))
        np.testing.assert_allclose(probs, np.full(n * n, 1 / n**2), atol=1e-10)


@pytest.mark.parametrize("mu", [(1.0, 0.0), (np.cos(np.pi / 8), np.sin(np.pi / 8))])
def test_branch_probabilities_partial_resource(mu):
    # with resource sum_k mu_k |kk>, outcome (phase, shift) has probability
    # sum_k rho_kk mu_{k+shift}^2 / N, whatever the phase
    rho = random_state(2, seed=7)
    resource = np.zeros(4, dtype=complex)
    resource[0], resource[3] = mu
    _, probs = teleport_detailed(rho, depolarizing(0.5), resource)
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-12
    diag = np.diag(rho).real
    by_shift = [(diag[0] * mu[0] ** 2 + diag[1] * mu[1] ** 2) / 2,
                (diag[0] * mu[1] ** 2 + diag[1] * mu[0] ** 2) / 2]
    # outcome index eta = phase * N + shift
    np.testing.assert_allclose(probs, np.tile(by_shift, 2), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_bell_rotation_maps_bell_states_to_basis(n):
    rotation = bell_rotation(n)
    np.testing.assert_allclose(rotation @ rotation.conj().T, np.eye(n * n), atol=1e-12)
    for eta in range(n * n):
        np.testing.assert_allclose(rotation @ bell_state(n, eta), np.eye(n * n)[eta],
                                   atol=1e-12)


def test_cached_operators_are_shared_and_read_only():
    qt = qt_protocol(3)
    assert qt_protocol(3) is qt
    np.testing.assert_array_equal(
        qt.branches,
        [p @ u for p, u in zip(qt.sender_projections, qt.sender_unitaries)])
    for arr in (qt.sender_projections, qt.sender_unitaries, qt.receiver_unitaries,
                qt.branches, qt.resource.mu):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_teleport_rejects_non_finite_state():
    rho = np.eye(2) / 2
    rho[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        teleport(rho, depolarizing(0.5))


def test_teleport_linear_in_state():
    ch = depolarizing(0.5)
    rho1 = random_state(2, seed=21)
    rho2 = random_state(2, seed=22)
    alpha = 0.3
    mixed = alpha * rho1 + (1 - alpha) * rho2
    expected = alpha * teleport(rho1, ch) + (1 - alpha) * teleport(rho2, ch)
    np.testing.assert_allclose(teleport(mixed, ch), expected, atol=1e-10)


def test_resource_default_matches_maximally_entangled():
    rho = random_state(2, seed=30)
    ch = depolarizing(0.25)
    np.testing.assert_allclose(
        teleport_detailed(rho, ch, maximally_entangled(2))[0],
        teleport(rho, ch),
        atol=1e-13,
    )


def test_product_resource_kills_coherence():
    ch = depolarizing(0.5)
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0  # |00>
    plus = projector(np.array([1, 1]) / np.sqrt(2))
    out = teleport_detailed(plus, ch, product)[0]
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)
    assert abs(fidelity(out, plus) - 0.5) < 1e-10
    # output depends only on the input's diagonal
    out_diag = teleport_detailed(np.diag(np.diag(plus)), ch, product)[0]
    np.testing.assert_allclose(out, out_diag, atol=1e-12)


def test_partial_resource_average_fidelity():
    # standard protocol with mu = (cos pi/8, sin pi/8): the average fidelity
    # over Haar inputs is (2 F_e + 1)/3 with F_e = (sum mu)^2 / 2
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    resource = np.zeros(4, dtype=complex)
    resource[0], resource[3] = c, s
    ch = depolarizing(0.5)
    total = 0.0
    count = 1000
    for seed in range(count):
        psi = random_pure(2, seed)
        out = teleport_detailed(projector(psi), ch, resource)[0]
        total += float(np.real(psi.conj() @ out @ psi))
    average = total / count
    expected = (2 * ((c + s) ** 2 / 2) + 1) / 3
    assert average < 0.95
    assert abs(average - expected) < 0.02


def test_resource_dim_mismatch():
    with pytest.raises(ValueError):
        teleport_detailed(random_state(2, 0), depolarizing(0.5), np.zeros(9))


def test_teleport_does_not_depend_on_channel():
    # the physical channel is never used on the payload path
    rho = random_state(2, seed=40)
    a = teleport(rho, identity_channel(2))
    b = teleport(rho, depolarizing(1.0))
    np.testing.assert_allclose(a, b, atol=1e-12)
