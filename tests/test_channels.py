import json

import numpy as np
import pytest

from teleportlab.channels import (
    ChoiMatrix,
    KrausChannel,
    apply_on_factor,
    channel_from_dict,
    channel_to_dict,
    choi,
    depolarizing,
    depolarizing_locc_simulable,
    identity_channel,
    kraus_from_choi,
    load_channel,
    random_channel,
    rank,
    save_channel,
)
from teleportlab.qmath import (
    dagger,
    embed_operator,
    maximally_entangled,
    projector,
    random_pure,
    random_state,
)


def test_apply_identity():
    rho = random_state(2, seed=0)
    np.testing.assert_allclose(identity_channel(2).apply(rho), rho, atol=1e-14)


def test_depolarizing_full_strength():
    zero = projector(np.array([1, 0]))
    np.testing.assert_allclose(
        depolarizing(1.0).apply(zero), np.eye(2) / 2, atol=1e-14
    )


def test_depolarizing_half_strength():
    zero = projector(np.array([1, 0]))
    np.testing.assert_allclose(
        depolarizing(0.5).apply(zero), np.diag([0.75, 0.25]), atol=1e-14
    )


def test_depolarizing_two_thirds():
    zero = projector(np.array([1, 0]))
    np.testing.assert_allclose(
        depolarizing(2 / 3).apply(zero), np.diag([2 / 3, 1 / 3]), atol=1e-14
    )


def test_depolarizing_action_matches_formula():
    for n in (2, 3):
        for p in (0.0, 0.3, 1.0):
            ch = depolarizing(p, n)
            rho = random_state(n, seed=n * 10 + int(p * 10))
            np.testing.assert_allclose(
                ch.apply(rho), p * np.eye(n) / n + (1 - p) * rho, atol=1e-12
            )


def test_depolarizing_rejects_bad_strength():
    with pytest.raises(ValueError):
        depolarizing(1.5)


def test_apply_dim_mismatch():
    with pytest.raises(ValueError):
        depolarizing(0.5).apply(np.eye(3) / 3)


def test_channel_rejects_non_trace_preserving():
    with pytest.raises(ValueError, match="trace-preserving"):
        KrausChannel(dim=2, kraus=(np.eye(2) * 0.5,))


def test_apply_on_factor_identity():
    rho = random_state(4, seed=1)
    out = apply_on_factor(identity_channel(2), rho, (2, 2), which=1)
    np.testing.assert_allclose(out, rho, atol=1e-13)


def test_apply_on_factor_builds_choi():
    psi0 = projector(maximally_entangled(2))
    ch = depolarizing(0.7)
    out = apply_on_factor(ch, psi0, (2, 2), which=0)
    np.testing.assert_allclose(out, choi(ch).matrix, atol=1e-13)


def test_depolarizing_on_half_pair():
    p = 0.4
    psi0 = projector(maximally_entangled(2))
    out = apply_on_factor(depolarizing(p), psi0, (2, 2), which=0)
    np.testing.assert_allclose(out, p * np.eye(4) / 4 + (1 - p) * psi0, atol=1e-13)


def test_apply_on_factor_preserves_trace_and_positivity():
    rho = random_state(6, seed=2)
    out = apply_on_factor(depolarizing(0.3, 3), rho, (2, 3), which=1)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(out)) > -1e-10


def test_apply_on_factor_matches_embed_operator():
    # reference: sum_k E_k rho E_k^dag with each Kraus operator embedded densely
    rng = np.random.default_rng(3)
    for which in (0, 1, 2, 1):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        ch = random_channel(dims[which], int(rng.integers(1, dims[which] ** 2 + 1)),
                            seed=int(rng.integers(1000)))
        rho = random_state(int(np.prod(dims)), seed=int(rng.integers(1000)))
        expected = sum(
            embed_operator(k, dims, [which]) @ rho
            @ dagger(embed_operator(k, dims, [which]))
            for k in ch.kraus
        )
        np.testing.assert_allclose(
            apply_on_factor(ch, rho, dims, which), expected, atol=1e-13
        )


@pytest.mark.parametrize("which", [2, -1])
def test_apply_on_factor_rejects_bad_factor_index(which):
    with pytest.raises(ValueError, match="out of range"):
        apply_on_factor(depolarizing(0.5), np.eye(4) / 4, (2, 2), which=which)


def test_apply_on_factor_rejects_state_shape_mismatch():
    with pytest.raises(ValueError, match="does not match factor dims"):
        apply_on_factor(depolarizing(0.5), np.eye(6) / 6, (2, 2), which=0)


def test_choi_identity_channel():
    r = choi(identity_channel(2))
    np.testing.assert_allclose(
        r.matrix, projector(maximally_entangled(2)), atol=1e-14
    )
    np.testing.assert_allclose(r.eigenvalues, [1, 0, 0, 0], atol=1e-12)


def test_choi_depolarizing_eigenvalues():
    for p in (0.25, 0.5, 1.0):
        vals = choi(depolarizing(p)).eigenvalues
        expected = sorted([1 - 3 * p / 4, p / 4, p / 4, p / 4], reverse=True)
        np.testing.assert_allclose(vals, expected, atol=1e-12)


def test_choi_unitary_channel_rank_one():
    rng = np.random.default_rng(3)
    from teleportlab.qmath import haar_unitary

    u = haar_unitary(2, rng)
    ch = KrausChannel(dim=2, kraus=(u,))
    r = choi(ch)
    assert np.sum(r.eigenvalues > 1e-12) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("full_rank", [False, True])
def test_choi_equals_kron_reference(n, full_rank):
    # bit-identical to the per-operator Kronecker sum, so the optimizer's
    # Choi state, hence its seeded searches, cannot move
    eye = np.eye(n)
    psi0 = projector(maximally_entangled(n))
    for seed in range(4):
        ch = random_channel(n, n * n if full_rank else 1, seed=70 + 10 * n + seed)
        expected = sum(np.kron(k, eye) @ psi0 @ np.kron(k, eye).conj().T
                       for k in ch.kraus)
        assert np.array_equal(choi(ch).matrix, expected)


def test_rank_examples():
    assert rank(identity_channel(2)) == 1
    assert rank(depolarizing(0.5)) == 4
    assert rank(depolarizing(0.0)) == 1


def test_rank_of_random_channels():
    for n in (2, 3):
        for r in range(1, n * n + 1):
            for seed in range(5):
                assert rank(random_channel(n, r, seed)) == r


def test_random_channel_deterministic():
    a = random_channel(2, 3, seed=9)
    b = random_channel(2, 3, seed=9)
    for ka, kb in zip(a.kraus, b.kraus):
        np.testing.assert_array_equal(ka, kb)


def test_random_channel_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_channel(2, 5, seed=0)


def test_kraus_from_choi_identity():
    ch = kraus_from_choi(choi(identity_channel(2)))
    assert len(ch.kraus) == 1
    k = ch.kraus[0]
    np.testing.assert_allclose(k / k[0, 0], np.eye(2), atol=1e-12)


def test_choi_round_trip_frobenius():
    for seed in range(10):
        n = 2 if seed % 2 == 0 else 3
        ch = random_channel(n, n * n, seed)
        r = choi(ch)
        back = choi(kraus_from_choi(r))
        assert np.linalg.norm(back.matrix - r.matrix) < 1e-10


def test_round_trip_preserves_action():
    ch = depolarizing(1.0)
    rebuilt = kraus_from_choi(choi(ch))
    for seed in range(20):
        rho = random_state(2, seed)
        np.testing.assert_allclose(rebuilt.apply(rho), ch.apply(rho), atol=1e-10)


def test_generated_channels_are_cptp():
    for seed in range(5):
        ch = random_channel(3, 4, seed)
        total = sum(dagger(k) @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(3))) < 1e-10
        rho = random_state(3, seed + 50)
        out = ch.apply(rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) > -1e-10


def test_depolarizing_average_fidelity():
    p = 0.5
    ch = depolarizing(p)
    total = 0.0
    count = 10_000
    for seed in range(count):
        psi = random_pure(2, seed)
        total += float(np.real(psi.conj() @ ch.apply(projector(psi)) @ psi))
    assert abs(total / count - (1 - p / 2)) < 0.01


def test_locc_simulable_threshold():
    assert depolarizing_locc_simulable(2 / 3)
    assert depolarizing_locc_simulable(1.0)
    assert not depolarizing_locc_simulable(0.5)
    assert not depolarizing_locc_simulable(2 / 3 - 1e-9)
    with pytest.raises(ValueError):
        depolarizing_locc_simulable(-0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_channel_rejects_non_finite_kraus(bad):
    with pytest.raises(ValueError, match="non-finite"):
        KrausChannel(2, (np.full((2, 2), bad),))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_choi_matrix_rejects_non_finite(bad):
    matrix = np.eye(4) / 4
    matrix[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ChoiMatrix.from_matrix(matrix, 2, 2)


def test_choi_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        ChoiMatrix.from_matrix(np.eye(4), 2, 2)
    skew = np.diag([1.2, -0.2, 0.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        ChoiMatrix.from_matrix(skew, 2, 2)
    # valid Choi but not trace-preserving as a map: marginal != I/N
    bad_marginal = np.diag([0.7, 0.0, 0.0, 0.3])
    with pytest.raises(ValueError, match="marginal"):
        ChoiMatrix.from_matrix(bad_marginal, 2, 2)


def test_channel_json_round_trip(tmp_path):
    ch = depolarizing(0.37)
    path = tmp_path / "channel.json"
    save_channel(ch, path)
    loaded = load_channel(path)
    assert loaded.dim == 2
    rho = random_state(2, seed=11)
    np.testing.assert_allclose(loaded.apply(rho), ch.apply(rho), atol=1e-14)


def test_channel_loader_rejects_invalid(tmp_path):
    path = tmp_path / "bad.json"
    bad = channel_to_dict(depolarizing(0.5))
    bad["kraus"] = bad["kraus"][:1]  # drop operators: no longer TP
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="trace-preserving"):
        load_channel(path)
    path.write_text("{}")
    with pytest.raises(ValueError, match="dim"):
        load_channel(path)


def test_channel_from_dict_shape_checks():
    with pytest.raises(ValueError):
        channel_from_dict({"dim": 2, "kraus": [[[1.0, 0.0]]]})
    # ragged operators do not stack; the odd one out is named
    ops = [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.eye(3)]
    with pytest.raises(ValueError, match=r"Kraus operator shape \(3, 3\) does not match dim 2"):
        KrausChannel(dim=2, kraus=ops)


def test_kraus_stack_is_an_owned_read_only_copy():
    ops = np.array(depolarizing(0.5).kraus)
    ch = KrausChannel(dim=2, kraus=ops)
    assert ch.kraus.shape == (4, 2, 2)
    assert ops.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ch.kraus[0] = 0.0
    ops[0] = 0.0
    np.testing.assert_array_equal(ch.kraus, depolarizing(0.5).kraus)
