import dataclasses
import hashlib
import json
import sys

import numpy as np
import pytest
from dense_reference import (control_map_reference, lambda_reference, reference_leg_run,
                             simulate_reference)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import teleportlab.protocol
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
    _branch_probabilities,
    _inner_products,
    apply_protocol,
    bare_protocol,
    block_operators,
    control_map,
    effective_choi,
    entanglement_fidelity,
    lambda_operators,
    load_protocol,
    protocol_to_dict,
    random_protocol,
    residual,
    save_protocol,
    target_overlap,
)
from teleportlab.qmath import (
    maximally_entangled,
    projector,
    random_pure,
    random_state,
    trace_distance,
)
from teleportlab.teleport import qt_protocol, teleport, teleport_detailed
from teleportlab.theorem import proof_report

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
    np.testing.assert_array_equal(apply_protocol(qt, ch, rho), teleport(rho, ch))


def test_bare_protocol_is_channel_use():
    ch = depolarizing(0.5)
    rho = random_state(2, seed=3)
    for mu in ([1.0], [1.0, 0.0]):
        proto = bare_protocol(2, mu=mu)
        np.testing.assert_allclose(apply_protocol(proto, ch, rho), ch.apply(rho),
                                   atol=1e-12)


@pytest.mark.parametrize("kwargs, message", [
    ({"mu": []}, "local dimension p must be >= 1, got 0"),
], ids=["empty-mu"])
def test_bare_protocol_rejects_a_bad_local_dim(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bare_protocol(2, **kwargs)


@pytest.mark.parametrize("n, local_dim, message", [
    (2, 0, "local dimension p must be >= 1, got 0"),
    (0, 2, "system dimension n must be >= 1, got 0"),
], ids=["p-0", "n-0"])
def test_random_protocol_checks_its_dimensions_first(n, local_dim, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        random_protocol(n, local_dim, 1, seed=0)


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


def test_apply_protocol_rejects_a_state_with_a_reference_leg():
    # a run is on A alone: a state on A (x) R, R of dim N, is the wrong shape
    rho = random_state(4, seed=1)
    with pytest.raises(ValueError, match=r"^state shape \(4, 4\) does not match protocol dim 2$"):
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
    proto = bare_protocol(2, mu=np.array([1.0, 0.0]))
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("full", [False, True])
def test_lambda_bits_match_the_three_operand_einsum(n, p, full):
    # M = 1 and M = N*P; the rows control_map reads are bit for bit the ones
    # of the reference einsum, so a rewrite that moves a bit fails here
    proto = random_protocol(n, p, n * p if full else 1, seed=10 * n + p)
    np.testing.assert_array_equal(lambda_operators(proto), lambda_reference(proto))


def test_control_superoperator_is_built_once_shared_and_read_only():
    proto = random_protocol(3, 3, 9, seed=5)
    ch = random_channel(3, 9, seed=6)
    t = proto._control_superoperator
    assert t.shape == (81, 81)
    with pytest.raises(ValueError, match="read-only"):
        t[0, 0] = 0.0
    control_map(proto, choi(ch))
    residual(proto, ch)
    assert proto._control_superoperator is t
    # Lambda is built afresh on each call, read-only, and is not kept
    lam = lambda_operators(proto)
    with pytest.raises(ValueError, match="read-only"):
        lam[0, 0, 0, 0, 0] = 0.0
    assert not np.shares_memory(lam, lambda_operators(proto))
    np.testing.assert_array_equal(lam, lambda_reference(proto))
    assert set(vars(proto)) - {f.name for f in dataclasses.fields(proto)} == {
        "_control_superoperator"}


def test_control_map_and_effective_choi_build_only_their_own_kept_map():
    # the two routes the consistency checks compare share no kept matrix:
    # the control superoperator is built from Lambda, not from the process
    # matrix Z, and the simulator never builds it
    ch = random_channel(3, 9, seed=1)
    proto = random_protocol(3, 2, 4, seed=9)
    control_map(proto, choi(ch))
    residual(proto, ch)
    assert "_control_superoperator" in vars(proto)
    assert "_process_matrix" not in vars(proto)
    proto = random_protocol(3, 2, 4, seed=9)
    effective_choi(proto, ch)
    apply_protocol(proto, ch, random_state(3, seed=2))
    assert "_process_matrix" in vars(proto)
    assert "_control_superoperator" not in vars(proto)


def test_transfer_matrices_are_built_once_read_only_and_shared():
    n, p, m = 3, 2, 4
    proto = random_protocol(n, p, m, seed=5)
    ch = random_channel(n, 9, seed=6)
    z = proto._process_matrix
    with pytest.raises(ValueError, match="read-only"):
        z[0, 0] = 0.0
    rho = random_state(n, seed=7)
    apply_protocol(proto, ch, rho)
    effective_choi(proto, ch)
    assert proto._process_matrix is z
    # the sender map as defined, f[m, a', A, b, X] = sum_a <A a'| L_m |X a> psi[a, b],
    # whose trace over (A, b) on rho gives the branch probabilities
    psi = proto.resource.state().reshape(p, p)
    f = np.einsum("mAqXa,ab->mqAbX", proto.branches.reshape(m, n, p, n, p), psi)
    snd = np.einsum("mqAbX,mqCdY->ACmbdXY", f, f.conj())
    np.testing.assert_allclose(_branch_probabilities(proto, rho),
                               np.einsum("AAmbbXY,XY->m", snd, rho).real,
                               rtol=0, atol=1e-15)
    # the receiver map, and Z N times their composition over the branches
    # and b, b', its columns the Choi state's raveled legs [B, A, B', A']
    w = proto.receiver_unitaries.reshape(m, n, p, n, p)
    rcv = np.einsum("mocBb,mOcCd->oOBCmbd", w, w.conj())
    expected = n * np.einsum("oOBCmbd,DEmbdXY->oOXYBDCE", rcv, snd)
    np.testing.assert_allclose(z, expected.reshape(n**4, n**4), rtol=0, atol=1e-15)
    # every teleport call reads the one cached qt_protocol(N)'s matrix
    qt = qt_protocol(n)
    teleport(random_state(n, seed=8), ch)
    z = qt._process_matrix
    teleport(random_state(n, seed=9), ch)
    teleport_detailed(random_state(n, seed=9), ch)
    assert qt_protocol(n)._process_matrix is z


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("full", [False, True])
def test_warm_calls_are_bit_identical_to_cold_ones(n, p, full):
    def make():
        return random_protocol(n, p, n * p if full else 1, seed=20 * n + p)

    ch = random_channel(n, n * n, seed=n + p)
    rho = random_state(n, seed=p)
    warm = make()
    for f in (lambda proto: apply_protocol(proto, ch, rho),
              lambda proto: effective_choi(proto, ch).matrix,
              lambda proto: control_map(proto, choi(ch)).matrix):
        f(warm)
        np.testing.assert_array_equal(f(warm), f(make()))


def test_kept_sender_half_of_effective_choi_is_channel_free(monkeypatch):
    calls = []
    original = teleportlab.protocol.block_operators

    def counted(proto):
        calls.append(proto)
        return original(proto)

    # every binding of the name in the package, as a tracer would wrap it
    for module in [m for name, m in sys.modules.items() if name.startswith("teleportlab")]:
        if getattr(module, "block_operators", None) is original:
            monkeypatch.setattr(module, "block_operators", counted)
    proto = random_protocol(3, 2, 4, seed=9)
    proof_report(proto)
    psi0 = projector(maximally_entangled(3))
    for ch in (random_channel(3, 9, seed=1), depolarizing(0.4, 3),
               random_channel(3, 9, seed=1)):
        expected = ChoiMatrix.from_matrix(reference_leg_run(proto, ch, psi0), tol=1e-8)
        np.testing.assert_array_equal(effective_choi(proto, ch).matrix, expected.matrix)
    assert calls == []
    with pytest.raises(ValueError, match="channel dim 2 does not match protocol dim 3"):
        effective_choi(proto, depolarizing(0.4))
    teleportlab.protocol.block_operators(proto)
    assert calls == [proto]


def test_protocol_keeps_only_the_control_superoperator_process_matrix_and_proof_numbers():
    proto = random_protocol(3, 2, 4, seed=9)
    ch = random_channel(3, 9, seed=1)
    apply_protocol(proto, ch, random_state(3, seed=2))
    effective_choi(proto, ch)
    control_map(proto, choi(ch))
    target_overlap(proto, choi(ch))
    proof_report(proto)
    kept = set(vars(proto)) - {f.name for f in dataclasses.fields(proto)}
    assert kept == {"_control_superoperator", "_process_matrix", "_proof_numbers"}


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
    ChoiMatrix.from_matrix(direct.matrix)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(protocols_and_channels())
def test_inner_products_give_the_control_map_overlap_property(case):
    # a third route to the fidelity: the overlap through the inner products G
    # against <psi0| control_map |psi0>; G against its defining einsum; and a
    # stack of protocols against row-by-row calls
    proto, ch = case
    r = choi(ch)
    psi0 = maximally_entangled(proto.n)
    direct = float(np.real(psi0.conj() @ control_map(proto, r).matrix @ psi0))
    assert abs(target_overlap(proto, r) - direct) <= 1e-13
    n, p, m, mu = proto.n, proto.local_dim, proto.m, proto.resource.mu
    g = _inner_products(mu, proto.branches, proto.receiver_unitaries, n, p)
    a, b = block_operators(proto)
    np.testing.assert_allclose(g, np.einsum("i,elinx,ekixm->eklnm", mu, a, b),
                               rtol=0, atol=1e-14)
    rows = [proto, random_protocol(n, p, m, seed=[n, p, m])]
    stacked = _inner_products(np.stack([q.resource.mu for q in rows]),
                              np.stack([q.branches for q in rows]),
                              np.stack([q.receiver_unitaries for q in rows]), n, p)
    np.testing.assert_array_equal(stacked, [
        _inner_products(q.resource.mu, q.branches, q.receiver_unitaries, n, p)
        for q in rows])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([2, 3]), p=st.integers(1, 3), full=st.booleans(),
       kraus=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_control_map_matches_the_two_gemm_reference_property(n, p, full, kraus, seed):
    # the kept superoperator's one product against sum_j Lam_j R Lam_j^dag by
    # two GEMMs over the reference control operators, at M = 1 and M = N*P
    # and for Choi states of every channel rank 1..N^2
    proto = random_protocol(n, p, n * p if full else 1, seed=seed)
    ch = random_channel(n, min(kraus, n * n), seed=[seed, 1])
    assert rank(ch) == min(kraus, n * n)
    np.testing.assert_allclose(control_map(proto, choi(ch)).matrix,
                               control_map_reference(proto, choi(ch)),
                               rtol=0, atol=1e-14)


def test_control_map_matches_operator_sum_reference():
    proto = random_protocol(3, 2, 5, seed=90)
    r = choi(random_channel(3, 9, seed=91))
    expected = sum(lam @ r.matrix @ lam.conj().T
                   for lam in lambda_operators(proto).reshape(-1, 9, 9))
    np.testing.assert_allclose(control_map(proto, r).matrix, expected,
                               rtol=0, atol=1e-14)


def _check_against_dense_reference(n, p, m, seed):
    # every operator embedded in the full A (x) a (x) b space, one branch at
    # a time: rho on A through apply_protocol
    proto = random_protocol(n, p, m, seed=seed)
    ch = random_channel(n, 3, seed=seed + 1)
    rho = random_state(n, seed=seed + 2)
    np.testing.assert_allclose(apply_protocol(proto, ch, rho),
                               simulate_reference(proto, ch, rho)[0],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,p,m", [(2, 1, 1), (2, 3, 4), (3, 2, 6)])
def test_apply_protocol_matches_dense_reference(n, p, m):
    _check_against_dense_reference(n, p, m, seed=95 + m)


@st.composite
def simulator_dims(draw):
    n = draw(st.sampled_from([2, 3, 4]), label="N")
    p = draw(st.integers(1, 3), label="P")
    return n, p, draw(st.sampled_from([1, n * p]), label="M")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dims=simulator_dims(), seed=st.integers(0, 2**16))
@example(dims=(2, 1, 1), seed=96)
@example(dims=(2, 3, 4), seed=99)
@example(dims=(3, 2, 6), seed=101)
def test_apply_protocol_matches_dense_reference_any_dims(dims, seed):
    _check_against_dense_reference(*dims, seed)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([2, 3]), p=st.integers(1, 3), full=st.booleans(),
       rank=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_run_and_effective_choi_match_simulate_reference_property(n, p, full, rank, seed):
    # the output of apply_protocol and the branch probabilities on a state on
    # A, and effective_choi, the run on psi_0 over A and a reference copy
    proto = random_protocol(n, p, n * p if full else 1, seed=seed)
    ch = random_channel(n, min(rank, n * n), seed=[seed, 1])
    rho = random_state(n, seed=[seed, 2])
    out, probs = apply_protocol(proto, ch, rho), _branch_probabilities(proto, rho)
    expected, expected_probs = simulate_reference(proto, ch, rho)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(probs, expected_probs, rtol=0, atol=1e-12)
    expected = simulate_reference(proto, ch, projector(maximally_entangled(n)))[0]
    np.testing.assert_allclose(effective_choi(proto, ch).matrix, expected,
                               rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dims=simulator_dims(), kraus=st.integers(1, 16), seed=st.integers(0, 2**16))
def test_effective_choi_is_the_reference_leg_run_bit_for_bit_property(dims, kraus, seed):
    # the end-to-end map realigned and scaled against the map times the
    # relaid psi_0 over A and a reference copy, at M = 1 and M = N*P and for
    # channels of every rank 1..N^2
    n, p, m = dims
    proto = random_protocol(n, p, m, seed=seed)
    ch = random_channel(n, min(kraus, n * n), seed=[seed, 3])
    assert rank(ch) == min(kraus, n * n)
    psi0 = projector(maximally_entangled(n))
    np.testing.assert_array_equal(effective_choi(proto, ch).matrix,
                                  reference_leg_run(proto, ch, psi0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dims=simulator_dims(), seed=st.integers(0, 2**16))
def test_process_matrix_is_the_control_superoperator_realigned_property(dims, seed):
    # the two kept supermaps as matrices, no channel involved: Z, its rows
    # realigned from (o, o', X, X') to (o, X, o', X') and divided by N, is T
    # (built from Lambda alone), so by linearity control_map equals
    # effective_choi on every channel at once, at M = 1 and M = N*P
    n = dims[0]
    proto = random_protocol(*dims, seed=seed)
    z = proto._process_matrix.reshape((n,) * 4 + (-1,)).transpose(0, 2, 1, 3, 4)
    np.testing.assert_allclose(z.reshape(n**4, n**4) / n, proto._control_superoperator,
                               rtol=0, atol=1e-15)


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
    message = "Choi dim 3 does not match protocol dim 2"
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
    with pytest.raises(ValueError, match="missing key 'N'"):
        load_protocol(path)

    data = protocol_to_dict(qt_protocol(2))
    data["mu"] = [1.0]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"'mu' has length 1, but 'P' is 2"):
        load_protocol(path)

    data = protocol_to_dict(qt_protocol(2))
    data["receiver"][0] = [[[0.5, 0.0], [0.0, 0.0]],
                           [[0.0, 0.0], [0.5, 0.0]]]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_protocol(path)


def test_protocol_from_dict_skips_validation_on_request(tmp_path):
    data = protocol_to_dict(qt_protocol(2))
    scaled = np.asarray(data["receiver"][0], dtype=float) * 0.5
    data["receiver"][0] = scaled.tolist()
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(data))
    proto = load_protocol(path, validate=False)
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


def _digest(*values) -> str:
    """sha256 of arrays' bytes and of strings, in order."""
    h = hashlib.sha256()
    for v in values:
        h.update(v.encode() if isinstance(v, str) else np.ascontiguousarray(v).tobytes())
    return h.hexdigest()


# Bits of the simulate path, so that any change that moves one bit of an output
# fails here: teleport, teleport_detailed (outputs and probabilities, with the
# default and a custom resource), apply_protocol, control_map, effective_choi,
# residual (float.hex) and the proof_report JSON, hashed in that order.  The
# N=3 cases run an N=P=3, M=9 random protocol through a rank-9 channel, as the
# simulate benchmark does.  Recorded with numpy 2.4.6 on OpenBLAS 0.3.31
# (x86_64); another BLAS build may round differently.
_GOLDEN_SIMULATIONS = {
    "n3-seed40": (lambda: (random_protocol(3, 3, 9, seed=40),
                           random_channel(3, 9, seed=41), random_state(3, seed=42)),
                  [0.2, 0.5, 0.8],
                  # re-recorded for the Choi state built as one Gram product
                  "287f20b0bdbf5ecce4c3c81d2b3b16b09ab2152c7f821f3f67dd72aabaad2a14"),
    "n3-seed50": (lambda: (random_protocol(3, 3, 9, seed=50),
                           random_channel(3, 9, seed=51), random_state(3, seed=52)),
                  [0.6, 0.3, 0.1],
                  # re-recorded for the Choi state built as one Gram product
                  "6870d74648b8436c62a36b75465961a1ecee06315cf1fe45ca15c2bbca5045df"),
    "n3-seed60": (lambda: (random_protocol(3, 3, 9, seed=60),
                           random_channel(3, 9, seed=61), random_state(3, seed=62)),
                  [1.0, 0.0, 0.0],
                  # re-recorded for the Choi state built as one Gram product
                  "06282593de9be6b34e800590dfcaef517904f98138b6137b13ec0d2cb7afb0f5"),
    "qt2": (lambda: (qt_protocol(2), random_channel(2, 4, seed=70),
                     random_state(2, seed=71)),
            [np.cos(np.pi / 8), np.sin(np.pi / 8)],
            # re-recorded for the Choi state built as one Gram product
            "5516e41fe6f67cb2ae98ac069e1b205e1d973e64f0a7cef738b0e1489b6545ac"),
}


@pytest.mark.parametrize("name", _GOLDEN_SIMULATIONS)
def test_simulate_path_matches_recorded_bits(name):
    make, mu, expected = _GOLDEN_SIMULATIONS[name]
    proto, ch, rho = make()
    resource = AncillaResource(mu=np.array(mu) / np.linalg.norm(mu))
    outputs = (teleport(rho, ch), *teleport_detailed(rho, ch),
               *teleport_detailed(rho, ch, resource), apply_protocol(proto, ch, rho),
               control_map(proto, choi(ch)).matrix, effective_choi(proto, ch).matrix,
               float.hex(residual(proto, ch)), json.dumps(proof_report(proto)))
    assert _digest(*outputs) == expected
