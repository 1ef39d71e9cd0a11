import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportlab.channels import (
    ChoiMatrix,
    choi,
    depolarizing,
    identity_channel,
    random_channel,
    rank,
)
from teleportlab.optimize import zero_parameterization
from teleportlab.protocol import (
    AncillaResource,
    ResourceProtocol,
    apply_protocol,
    bare_protocol,
    block_operators,
    control_map,
    effective_choi,
    entanglement_fidelity,
    lambda_operators,
    load_protocol,
    protocol_from_dict,
    protocol_to_dict,
    random_protocol,
    residual,
    save_protocol,
    target_overlap,
)
from teleportlab.qmath import (
    maximally_entangled,
    partial_trace,
    projector,
    random_pure,
    random_state,
    trace_distance,
)
from teleportlab.teleport import qt_protocol, teleport

FEASIBLE_COMBOS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 1), (4, 2), (4, 4)]


def test_ancilla_resource_validation():
    AncillaResource(mu=np.array([1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        AncillaResource(mu=np.array([-1.0, 0.0]))
    with pytest.raises(ValueError, match="sum to 1"):
        AncillaResource(mu=np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ancilla_resource_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        AncillaResource(mu=np.array([bad, bad]))


def test_check_determinism_rejects_non_finite():
    qt = qt_protocol(2)
    receivers = list(qt.receiver_unitaries)
    receivers[1] = np.full((4, 4), np.nan)
    broken = ResourceProtocol(
        n=2, resource=qt.resource, sender_projections=qt.sender_projections,
        sender_unitaries=qt.sender_unitaries, receiver_unitaries=tuple(receivers),
        validate=False,
    )
    with pytest.raises(ValueError, match="non-finite"):
        broken.check_determinism()


def test_unvalidated_protocol_with_wrong_operator_shape_is_named():
    # 3x3 operators where N*P = 2*1 = 2; validate=False skips only determinism
    eye = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match N\*P = 2\*1 = 2"):
        ResourceProtocol(
            n=2, resource=AncillaResource(mu=np.array([1.0])),
            sender_projections=(eye,), sender_unitaries=(eye,),
            receiver_unitaries=(eye,), validate=False,
        )
    # ragged operators do not stack; the odd one out is named all the same
    two = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match=r"receiver shape \(3, 3\) does not match N\*P = 2\*1 = 2"):
        ResourceProtocol(
            n=2, resource=AncillaResource(mu=np.array([1.0])),
            sender_projections=(two, two), sender_unitaries=(two, two),
            receiver_unitaries=(two, eye), validate=False,
        )


def test_operator_arrays_are_owned_copies():
    # the protocol freezes its own copies, never the caller's arrays
    proto = random_protocol(2, 2, 4, seed=3)
    mu, receivers = np.array(proto.resource.mu), np.array(proto.receiver_unitaries)
    copy = ResourceProtocol(
        n=2, resource=AncillaResource(mu=mu),
        sender_projections=proto.sender_projections,
        sender_unitaries=proto.sender_unitaries, receiver_unitaries=receivers,
    )
    assert mu.flags.writeable and receivers.flags.writeable
    receivers[0] = 0.0
    np.testing.assert_array_equal(copy.receiver_unitaries, proto.receiver_unitaries)


def test_qt_protocol_reproduces_input():
    qt = qt_protocol(2)
    ch = depolarizing(0.5)
    rho = random_state(2, seed=0)
    out = apply_protocol(qt, ch, rho)
    assert trace_distance(out, rho) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qt_protocol_matches_teleport_module(n):
    qt = qt_protocol(n)
    ch = random_channel(n, n * n, seed=1)
    rho = random_state(n, seed=2)
    np.testing.assert_allclose(
        apply_protocol(qt, ch, rho), teleport(rho, ch), atol=1e-12
    )


def test_bare_protocol_is_channel_use():
    ch = depolarizing(0.5)
    rho = random_state(2, seed=3)
    for local_dim in (1, 2):
        proto = bare_protocol(2, local_dim=local_dim)
        np.testing.assert_allclose(apply_protocol(proto, ch, rho), ch.apply(rho),
                                   atol=1e-12)


def test_random_protocols_trace_preserving():
    for seed, (p, m) in enumerate(FEASIBLE_COMBOS):
        proto = random_protocol(2, p, m, seed=seed)
        ch = random_channel(2, 4, seed=seed + 100)
        out = apply_protocol(proto, ch, random_state(2, seed=seed + 200))
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.min(np.linalg.eigvalsh(out)) > -1e-10


def test_apply_protocol_rejects_non_finite_state():
    rho = np.eye(2) / 2
    rho[1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        apply_protocol(random_protocol(2, 2, 2, seed=1), depolarizing(0.5), rho)


def test_protocol_rejects_non_deterministic():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="deterministic"):
        ResourceProtocol(
            n=2,
            resource=AncillaResource(mu=np.array([1.0])),
            sender_projections=(eye * 0.5,),
            sender_unitaries=(eye,),
            receiver_unitaries=(eye,),
        )


def test_blocks_of_identity_sender():
    proto = bare_protocol(2, local_dim=2, mu=np.array([1.0, 0.0]))
    a, _ = block_operators(proto)
    for i in range(2):
        for j in range(2):
            expected = np.eye(2) if i == j else np.zeros((2, 2))
            np.testing.assert_allclose(a[0, i, j], expected, atol=1e-14)


def test_qt_block_entries():
    a, _ = block_operators(qt_protocol(2))
    allowed = np.array([0, 1 / np.sqrt(2), -1 / np.sqrt(2),
                        1j / np.sqrt(2), -1j / np.sqrt(2)])
    entries = a.reshape(-1)
    dist = np.min(np.abs(entries[:, None] - allowed[None, :]), axis=1)
    assert np.max(dist) < 1e-12


def test_lambda_bare_is_identity():
    lam = lambda_operators(bare_protocol(2))
    assert lam.shape == (1, 1, 1, 4, 4)
    np.testing.assert_allclose(lam[0, 0, 0], np.eye(4), atol=1e-14)


def test_lambda_qt_completeness():
    # one control operator per (branch, k, l) with k, l over the ancilla
    # Schmidt range: M * P^2 of them for the teleportation protocol
    lam = lambda_operators(qt_protocol(2)).reshape(-1, 4, 4)
    assert lam.shape == (16, 4, 4)
    total = sum(op.conj().T @ op for op in lam)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-9)


def test_lambda_reconstruction_from_blocks():
    proto = random_protocol(2, 2, 2, seed=7)
    a, b = block_operators(proto)
    lam = lambda_operators(proto)
    mu = proto.resource.mu
    for eta in range(proto.m):
        for k in range(proto.local_dim):
            for l in range(proto.local_dim):
                expected = sum(
                    mu[i] * np.kron(b[eta, k, i], a[eta, l, i].T)
                    for i in range(proto.local_dim)
                )
                np.testing.assert_allclose(lam[eta, k, l], expected, atol=1e-12)


def test_control_map_bare_is_identity_map():
    ch = depolarizing(0.6)
    r = choi(ch)
    out = control_map(bare_protocol(2), r)
    np.testing.assert_allclose(out.matrix, r.matrix, atol=1e-13)


def test_control_map_qt_reaches_target():
    qt = qt_protocol(2)
    for seed in range(3):
        ch = random_channel(2, 4, seed=seed)
        out = control_map(qt, choi(ch))
        np.testing.assert_allclose(
            out.matrix, projector(maximally_entangled(2)), atol=1e-9
        )


@pytest.mark.parametrize("p,m", FEASIBLE_COMBOS)
def test_control_map_matches_tomography(p, m):
    proto = random_protocol(2, p, m, seed=p * 10 + m)
    ch = random_channel(2, 4, seed=p * 100 + m)
    gap = np.linalg.norm(
        control_map(proto, choi(ch)).matrix - effective_choi(proto, ch).matrix
    )
    assert gap < 1e-9


@pytest.mark.parametrize("m", [1, 8])
def test_control_map_matches_effective_choi_n4(m):
    proto = random_protocol(4, 2, m, seed=40 + m)
    ch = random_channel(4, 16, seed=41 + m)
    assert rank(ch) == 16
    gap = np.linalg.norm(
        control_map(proto, choi(ch)).matrix - effective_choi(proto, ch).matrix
    )
    assert gap < 1e-9


@st.composite
def protocols_and_channels(draw):
    n = draw(st.sampled_from([2, 3]), label="N")
    p = draw(st.integers(1, 3), label="P")
    m = draw(st.integers(1, n * p), label="M")
    k = draw(st.integers(1, n * n), label="rank")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return random_protocol(n, p, m, seed=seed), random_channel(n, k, seed=[seed, 1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(protocols_and_channels())
def test_control_map_equals_effective_choi_property(case):
    proto, ch = case
    controlled = control_map(proto, choi(ch))
    direct = effective_choi(proto, ch)
    assert np.max(np.abs(controlled.matrix - direct.matrix)) <= 1e-10
    ChoiMatrix.from_matrix(direct.matrix, dim_out=ch.dim, dim_in=ch.dim)


def test_control_map_matches_operator_sum_reference():
    proto = random_protocol(3, 2, 5, seed=90)
    r = choi(random_channel(3, 9, seed=91))
    expected = sum(lam @ r.matrix @ lam.conj().T
                   for lam in lambda_operators(proto).reshape(-1, 9, 9))
    np.testing.assert_allclose(control_map(proto, r).matrix, expected,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("n,p,m", [(2, 1, 1), (2, 3, 4), (3, 2, 6)])
def test_apply_protocol_matches_dense_reference(n, p, m):
    # every operator embedded in the full A (x) a (x) b space, one branch at a time
    proto = random_protocol(n, p, m, seed=95 + m)
    ch = random_channel(n, 3, seed=96 + m)
    rho = random_state(n, seed=97 + m)
    sigma = np.kron(rho, projector(proto.resource.state()))
    expected = np.zeros((n, n), dtype=complex)
    for op, w in zip(proto.branches, proto.receiver_unitaries):
        big = np.kron(op, np.eye(p))
        s = partial_trace(big @ sigma @ big.conj().T, (n, p, p), keep=(0, 2))
        s = sum(np.kron(k, np.eye(p)) @ s @ np.kron(k, np.eye(p)).conj().T
                for k in ch.kraus)
        expected += partial_trace(w @ s @ w.conj().T, (n, p), keep=0)
    np.testing.assert_allclose(apply_protocol(proto, ch, rho), expected,
                               rtol=0, atol=1e-12)


def test_effective_choi_matches_basis_reference():
    # one batched run on |psi_0><psi_0| equals sum_ij E(|i><j|) (x) |i><j| / N
    n = 3
    proto = random_protocol(n, 3, 9, seed=60)
    ch = random_channel(n, 9, seed=61)
    expected = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            expected += np.kron(apply_protocol(proto, ch, unit), unit) / n
    np.testing.assert_allclose(effective_choi(proto, ch).matrix, expected, atol=1e-12)


def test_residual_examples():
    qt = qt_protocol(2)
    assert residual(qt, depolarizing(0.5)) < 1e-9
    p = 0.5
    expected = p * np.sqrt(3) / 2
    assert abs(residual(bare_protocol(2), depolarizing(p)) - expected) < 1e-12
    assert residual(bare_protocol(2), identity_channel(2)) < 1e-12


def test_entanglement_fidelity_examples():
    qt = qt_protocol(2)
    assert entanglement_fidelity(qt, random_channel(2, 4, seed=9)) > 1 - 1e-9
    for p in (0.25, 0.5, 1.0):
        f = entanglement_fidelity(bare_protocol(2), depolarizing(p))
        assert abs(f - (1 - 3 * p / 4)) < 1e-12


def test_average_fidelity_relation():
    # F_avg = (N F_e + 1)/(N + 1), cross-checked by Haar Monte-Carlo
    proto = random_protocol(2, 2, 2, seed=13)
    ch = depolarizing(0.5)
    f_e = entanglement_fidelity(proto, ch)
    total = 0.0
    count = 2000
    for seed in range(count):
        psi = random_pure(2, seed)
        out = apply_protocol(proto, ch, projector(psi))
        total += float(np.real(psi.conj() @ out @ psi))
    f_avg = total / count
    assert abs(f_avg - (2 * f_e + 1) / 3) < 0.01


def _max_basis_deviation(proto, ch):
    n = proto.n
    worst = 0.0
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            worst = max(worst, float(np.max(np.abs(
                apply_protocol(proto, ch, unit) - unit
            ))))
    return worst


def test_residual_iff_identity_on_basis():
    ch = depolarizing(0.5)
    qt = qt_protocol(2)
    assert residual(qt, ch) < 1e-9
    assert _max_basis_deviation(qt, ch) < 1e-8

    # perturb one receiver: still deterministic, no longer faithful
    angle = 0.3
    rot = np.kron(
        np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]),
        np.eye(2),
    )
    receivers = list(qt.receiver_unitaries)
    receivers[0] = rot @ receivers[0]
    perturbed = ResourceProtocol(
        n=2,
        resource=qt.resource,
        sender_projections=qt.sender_projections,
        sender_unitaries=qt.sender_unitaries,
        receiver_unitaries=tuple(receivers),
    )
    assert residual(perturbed, ch) > 1e-3
    assert _max_basis_deviation(perturbed, ch) > 1e-3


def test_residual_and_infidelity_co_vanish():
    # residual < 1e-9 iff 1 - F_e < 1e-8, checked in both directions
    ch = depolarizing(0.5)
    qt = qt_protocol(2)
    assert residual(qt, ch) < 1e-9
    assert 1 - entanglement_fidelity(qt, ch) < 1e-8
    for proto in (bare_protocol(2), random_protocol(2, 2, 4, seed=55)):
        assert residual(proto, ch) >= 1e-9
        assert 1 - entanglement_fidelity(proto, ch) >= 1e-8


def test_equivalence_n3():
    proto = qt_protocol(3)
    ch = random_channel(3, 5, seed=21)
    gap = np.linalg.norm(
        control_map(proto, choi(ch)).matrix - effective_choi(proto, ch).matrix
    )
    assert gap < 1e-9


def test_target_overlap_matches_entanglement_fidelity():
    proto = random_protocol(2, 2, 4, seed=31)
    ch = random_channel(2, 3, seed=32)
    assert abs(
        target_overlap(proto, choi(ch)) - entanglement_fidelity(proto, ch)
    ) < 1e-14


def test_target_overlap_rejects_choi_dimension_mismatch():
    qt = qt_protocol(2)
    message = "Choi dims 3x3 do not match protocol dim 2"
    with pytest.raises(ValueError, match=message):
        target_overlap(qt, choi(depolarizing(0.5, 3)))
    with pytest.raises(ValueError, match=message):
        entanglement_fidelity(qt, depolarizing(0.5, 3))
    with pytest.raises(ValueError, match=message):
        control_map(qt, choi(depolarizing(0.5, 3)))


def test_protocol_json_round_trip(tmp_path):
    path = tmp_path / "protocol.json"
    for proto in (random_protocol(2, 2, 2, seed=17), qt_protocol(2), qt_protocol(3)):
        save_protocol(proto, path)
        loaded = load_protocol(path)
        assert loaded.n == proto.n and loaded.m == proto.m
        np.testing.assert_array_equal(loaded.resource.mu, proto.resource.mu)
        for field in ("sender_projections", "sender_unitaries", "receiver_unitaries"):
            np.testing.assert_array_equal(getattr(loaded, field), getattr(proto, field))
        ch = depolarizing(0.3, proto.n)
        rho = random_state(proto.n, seed=18)
        np.testing.assert_allclose(
            apply_protocol(loaded, ch, rho), apply_protocol(proto, ch, rho), atol=1e-12
        )


def test_protocol_loader_rejections(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(ValueError, match="missing keys"):
        load_protocol(path)

    data = protocol_to_dict(qt_protocol(2))
    data["mu"] = [1.0]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="mu length"):
        load_protocol(path)

    data = protocol_to_dict(qt_protocol(2))
    data["receiver"][0] = [[[0.5, 0.0], [0.0, 0.0]],
                           [[0.0, 0.0], [0.5, 0.0]]]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_protocol(path)


def test_protocol_from_dict_skips_validation_on_request():
    data = protocol_to_dict(qt_protocol(2))
    scaled = np.asarray(data["receiver"][0], dtype=float) * 0.5
    data["receiver"][0] = scaled.tolist()
    proto = protocol_from_dict(data, validate=False)
    with pytest.raises(ValueError, match="deterministic"):
        proto.check_determinism()


@pytest.mark.parametrize("make", [
    lambda: random_protocol(2, 2, 4, seed=1),
    lambda: depolarizing(0.5),
    lambda: AncillaResource(mu=np.full(2, 2**-0.5)),
    lambda: choi(depolarizing(0.5)),
    lambda: zero_parameterization(2, 2, "full"),
], ids=["ResourceProtocol", "KrausChannel", "AncillaResource", "ChoiMatrix",
        "ProtocolParameterization"])
def test_array_records_compare_by_identity(make):
    # the generated __eq__ would compare ndarray fields and raise
    x, twin = make(), make()
    assert x == x
    assert x != twin
    assert hash(x) == hash(x)
    assert x in {x} and twin not in {x}
    assert len({x, twin, x}) == 2
