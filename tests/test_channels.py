import json
import re
import tracemalloc

import numpy as np
import pytest
from dense_reference import (check_state_reference, choi_check_reference,
                             choi_kron_reference, tp_sum_reference, weyl_reference)
from hypothesis import given, settings
from hypothesis import strategies as st

import teleportlab.channels as channels_module
from teleportlab.channels import (
    ChoiMatrix,
    KrausChannel,
    _tp_deviation,
    _weyl,
    apply_on_factor,
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
    weyl_operator,
)
from teleportlab.qmath import (
    assert_density_matrix,
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


@pytest.mark.parametrize("n", range(2, 9))
def test_depolarizing_kraus_stack_is_the_scaled_weyl_operators(n):
    # the one scaled stack equals the operators scaled one at a time, bit for
    # bit, sqrt(1 - p + p/N^2) I first, then each other W_ab in (a, b) order
    for p in (0.0, 0.1, 0.3, 0.5, 0.77, 1.0):
        expected = [np.sqrt(1.0 - p + p / n**2) * np.eye(n, dtype=complex)]
        expected += [np.sqrt(p) / n * weyl_reference(n, a, b)
                     for a in range(n) for b in range(n) if a or b]
        assert depolarizing(p, n).kraus.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_weyl_builder_is_the_per_column_reference_bit_for_bit(n):
    # one operator, a broadcast index grid and weyl_operator all give the
    # bits of the per-column loop
    expected = np.array([[weyl_reference(n, a, b) for b in range(n)] for a in range(n)])
    grid = _weyl(n, np.arange(n)[:, None], np.arange(n))
    assert grid.shape == (n, n, n, n)
    assert grid.tobytes() == expected.tobytes()
    for a in range(n):
        for b in range(n):
            for w in (_weyl(n, a, b), weyl_operator(n, a, b)):
                assert w.shape == (n, n)
                assert w.tobytes() == expected[a, b].tobytes()


def test_weyl_operator_builds_only_what_it_returns():
    # one 64 x 64 operator (64 KB) peaks below 4 times its size; a row taken
    # from the whole stack of 64^2 operators would peak at about 4000 times
    weyl_operator(2, 1, 1)
    tracemalloc.start()
    try:
        out = weyl_operator(64, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * out.nbytes


def _never_built(*args, **kwargs):
    raise AssertionError("built before the dimension check")


def test_depolarizing_checks_the_dimension_before_the_weyl_stack(monkeypatch):
    # depolarizing(p, 1000) asked for 7.45 GiB in _weyl
    monkeypatch.setattr(channels_module, "_weyl", _never_built)
    with pytest.raises(ValueError, match=r"^dimension must lie in 2\.\.64, got 65$"):
        depolarizing(0.5, 65)


def test_kraus_channel_checks_the_dimension_before_the_choi_state(monkeypatch):
    # at dim 200 the Choi state's Gram product asked for 23.8 GiB
    for name in ("_operator_stack", "_psi0_projector"):
        monkeypatch.setattr(channels_module, name, _never_built)
    with pytest.raises(ValueError,
                       match=r"^channel dimension must lie in 2\.\.64, got 65$"):
        KrausChannel(dim=65, kraus=np.eye(65)[None])


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
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_choi_equals_kron_reference(n, full_rank, seed):
    # the Gram product J = (1/N) V^T conj(V) and the one-product sum of
    # K^dag K against their per-operator references, at every rank: each
    # below N^2, then N^2 (the seeded-search goldens pin J's bits)
    for r in [n * n] if full_rank else range(1, n * n):
        ch = random_channel(n, r, seed=seed)
        np.testing.assert_allclose(choi(ch).matrix, choi_kron_reference(ch.kraus),
                                   rtol=0, atol=1e-15)
        expected = np.max(np.abs(tp_sum_reference(ch.kraus) - np.eye(n)))
        assert abs(_tp_deviation(ch.kraus) - expected) <= 1e-15


@pytest.mark.parametrize("build", [lambda: depolarizing(0.5, 12),
                                   lambda: random_channel(12, 144, seed=0)],
                         ids=["depolarizing", "random_channel"])
def test_channel_construction_peaks_within_a_few_choi_states(build):
    # J holds 16 N^4 bytes (0.33 MB at N = 12); the build peaks below 16 J,
    # where a stack of E operators on N^2 x N^2 would take E J (E = 144 here)
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 16 * 12**4


def test_rank_examples():
    assert rank(identity_channel(2)) == 1
    assert rank(depolarizing(0.5)) == 4
    assert rank(depolarizing(0.0)) == 1


def test_rank_of_random_channels():
    for n in (2, 3):
        for r in range(1, n * n + 1):
            for seed in range(5):
                assert rank(random_channel(n, r, seed)) == r


@pytest.mark.parametrize("ch,tol", [
    (depolarizing(0.5), np.nan),
    (identity_channel(2), -1.0),
    (identity_channel(2), np.inf),
])
def test_rank_rejects_bad_tolerance(ch, tol):
    with pytest.raises(ValueError, match=f"tol must be finite and >= 0, got {tol}"):
        rank(ch, tol)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_kraus_from_choi_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match=f"tol must be finite and >= 0, got {tol}"):
        kraus_from_choi(choi(depolarizing(0.5)), tol)


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
        ChoiMatrix.from_matrix(matrix)


def test_choi_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        ChoiMatrix.from_matrix(np.eye(4))
    skew = np.diag([1.2, -0.2, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"positive semidefinite: min eigenvalue -2\.000e-01"):
        ChoiMatrix.from_matrix(skew)
    # valid Choi but not trace-preserving as a map: marginal != I/N
    bad_marginal = np.diag([0.7, 0.0, 0.0, 0.3])
    with pytest.raises(ValueError, match="marginal"):
        ChoiMatrix.from_matrix(bad_marginal)


# both kinds of state go through the one state checker, the Choi state by its
# constructor; each check names the kind of state it rejects
_STATE_KINDS = pytest.mark.parametrize("check, what", [
    (assert_density_matrix, "density matrix"),
    (ChoiMatrix, "Choi matrix"),
], ids=["density", "choi"])


@_STATE_KINDS
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(entry=st.integers(0, 15),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan),
                            complex(0, -np.inf)]))
def test_states_reject_a_non_finite_entry(check, what, entry, bad):
    matrix = np.eye(4, dtype=complex) / 4
    matrix.flat[entry] = bad
    with pytest.raises(ValueError, match=f"^{what} has non-finite entries$"):
        check(matrix)


@_STATE_KINDS
@pytest.mark.parametrize("matrix, message", [
    (np.triu(np.ones((4, 4))) / 4, r"not Hermitian: deviation 2\.500e-01"),
    (np.diag([0.6, 0.6, 0.6, -0.8]),
     r"not positive semidefinite: min eigenvalue -8\.000e-01"),
    (np.eye(4) / 2, r"trace deviates from 1 by 1\.000e\+00"),
], ids=["non-hermitian", "non-psd", "trace-2"])
def test_states_reject_a_broken_invariant(check, what, matrix, message):
    with pytest.raises(ValueError, match=f"^{what} {message}$"):
        check(matrix)


# the one message of a Choi matrix that is not N^2 x N^2, for a shape (regex)
_CHOI_SHAPE = r"Choi matrix shape {} is not N\^2 x N\^2 for an integer N >= 1"


@pytest.mark.parametrize("check, message", [
    (lambda: ChoiMatrix(np.zeros((0, 0))), _CHOI_SHAPE.format(r"\(0, 0\)")),
    (lambda: ChoiMatrix.from_matrix(np.zeros((4, 0))),
     _CHOI_SHAPE.format(r"\(4, 0\)")),
    (lambda: assert_density_matrix(np.zeros((0, 0))),
     r"density matrix is empty, shape \(0, 0\)"),
], ids=["choi-zero", "choi-zero-dim-in", "density-empty"])
def test_states_reject_empty_and_dimensionless_input_by_name(check, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check()


@pytest.mark.parametrize("matrix", [
    np.eye(3) / 3, np.eye(2) / 2, np.eye(4, 2) / 2, np.zeros((0, 0)),
    np.eye(4)[None] / 4,
], ids=["3x3", "2x2", "4x2", "0x0", "3-d"])
def test_choi_rejects_a_shape_that_is_not_n_squared_by_one_message(matrix):
    # the shape is checked before the state: N is read from it
    shape = re.escape(str(matrix.shape))
    with pytest.raises(ValueError, match=f"^{_CHOI_SHAPE.format(shape)}$"):
        ChoiMatrix(matrix)


def test_choi_dim_is_read_from_the_matrix():
    ch = random_channel(3, 9, seed=1)
    assert choi(ch).dim == ch.dim == 3
    assert ChoiMatrix(np.ones((1, 1))).dim == 1


def _verdict(check, *args):
    """The message of the ValueError a check raises, or None if it passes."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _step(x: float, side: int) -> float:
    """x, or the float one ulp below (side -1) or above (side 1) it."""
    return x if side == 0 else float(np.nextafter(x, side * np.inf))


@st.composite
def checked_states(draw):
    """A d x d matrix for d in {4, 9} with a tol in {0, 1e-12, 1e-8}: a valid
    Choi state, one with a non-finite entry, one with a random perturbation,
    or one whose Hermitian deviation, minimum eigenvalue, trace deviation or
    Choi marginal deviation sits at tol or one ulp either side of it."""
    n = draw(st.sampled_from([2, 3]), label="N")
    d = n * n
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-8]), label="tol")
    kind = draw(st.sampled_from(["valid", "non-finite", "perturbed", "hermitian",
                                 "eigenvalue", "trace", "marginal"]), label="kind")
    side = draw(st.sampled_from([-1, 0, 1]), label="side")
    seed = draw(st.integers(0, 2**16), label="seed")
    # I/d has exact zeros off the diagonal, so each deviation below is exact
    m = np.eye(d, dtype=complex) / d
    if kind in ("valid", "non-finite", "perturbed"):
        m = np.array(choi(random_channel(n, draw(st.integers(1, d)), seed)).matrix)
    if kind == "non-finite":
        m.flat[draw(st.integers(0, d * d - 1))] = draw(st.sampled_from(
            [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)]))
    elif kind == "perturbed":
        rng = np.random.default_rng(seed)
        scale = draw(st.sampled_from([1e-13, 1e-11, 1e-9, 1e-7]))
        m += scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    elif kind == "hermitian":  # |m - m^dag| peaks at |m[0, 1]|
        m[0, 1] = _step(tol, side)
    elif kind == "eigenvalue":  # a diagonal entry -e, the minimum eigenvalue
        m[0, 0] = -_step(tol, side)
    elif kind == "trace":  # the trace x itself, on the float grid about 1 +- tol
        m[:] = 0.0
        m[0, 0] = _step(1.0 + draw(st.sampled_from([-1, 1])) * tol, side)
    elif kind == "marginal":  # the marginal's off-diagonal entry [0, 1]
        m[0, 1] = m[1, 0] = _step(tol, side)
    return n, m, tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=checked_states())
def test_state_checks_match_the_plain_reference_property(case):
    # the same verdict and message as the np.* form of every check, in order
    n, m, tol = case
    assert (_verdict(ChoiMatrix.from_matrix, m, tol)
            == _verdict(choi_check_reference, m, tol))
    assert (_verdict(assert_density_matrix, m, tol)
            == _verdict(check_state_reference, m, "density matrix", tol))


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


def test_channel_from_dict_shape_checks(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"dim": 2, "kraus": [[[1.0, 0.0]]]}))
    with pytest.raises(ValueError):
        load_channel(path)
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


def test_choi_state_is_built_once_per_channel():
    ch = random_channel(3, 9, seed=2)
    assert choi(ch) is choi(ch)
    with pytest.raises(ValueError, match="read-only"):
        choi(ch).matrix[0, 0] = 7.0


def test_choi_matrix_is_an_owned_read_only_copy():
    m = np.eye(4, dtype=complex) / 4
    c = ChoiMatrix.from_matrix(m)
    direct = ChoiMatrix(m)
    m[0, 0] = 7.0
    np.testing.assert_array_equal(c.matrix, np.eye(4) / 4)
    np.testing.assert_array_equal(direct.matrix, np.eye(4) / 4)
    with pytest.raises(ValueError, match="trace deviates from 1 by 1.900e"):
        ChoiMatrix(5 * np.eye(4))
    for r in (c, direct, choi(depolarizing(0.5))):
        with pytest.raises(ValueError, match="read-only"):
            r.matrix[0, 0] = 7.0


@pytest.mark.parametrize("n,k", [(2, 1), (2, 4), (3, 9)])
def test_choi_eigensystem_is_the_descending_eigh_of_the_hermitian_part(n, k):
    r = choi(random_channel(n, k, seed=40 + k))
    vals, vecs = np.linalg.eigh((r.matrix + dagger(r.matrix)) / 2.0)
    order = np.argsort(vals)[::-1]
    np.testing.assert_array_equal(r.eigenvalues, vals[order])
    np.testing.assert_array_equal(r.eigenvectors, vecs[:, order])
    assert r.eigenvalues is r.eigenvalues  # computed once
    with pytest.raises(ValueError, match="read-only"):
        r.eigenvalues[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        r.eigenvectors[0, 0] = 0.0
