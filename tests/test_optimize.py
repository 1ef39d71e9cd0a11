import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportlab.channels import choi, depolarizing, random_channel
from teleportlab.optimize import (
    MEASUREMENT_CHOICES,
    OptimizationConfig,
    ProtocolParameterization,
    _compile_objective,
    _hermitian_map,
    _squared_softmax,
    decode,
    generator_from_unitary,
    hermitian_to_vec,
    objective,
    optimize,
    qt_parameterization,
    sweep_mu,
    unitary_from_generator,
    vec_to_hermitian,
    zero_parameterization,
)
from teleportlab.protocol import apply_protocol, residual, target_overlap
from teleportlab.qmath import haar_unitary, random_state


def test_hermitian_vec_round_trip():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    np.testing.assert_allclose(vec_to_hermitian(hermitian_to_vec(h), 4), h,
                               atol=1e-14)


def test_hermitian_map_is_cached_and_read_only():
    assert _hermitian_map(3) is _hermitian_map(3)
    with pytest.raises(ValueError, match="read-only"):
        _hermitian_map(3)[0, 0] = 2.0


def test_unitary_generator_round_trip():
    rng = np.random.default_rng(1)
    u = haar_unitary(4, rng)
    h = generator_from_unitary(u)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    np.testing.assert_allclose(unitary_from_generator(h), u, atol=1e-11)


def test_stacked_generator_calls_equal_per_matrix_calls():
    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((3, 5, 16))
    h = vec_to_hermitian(vecs, 4)
    assert h.shape == (3, 5, 4, 4)
    np.testing.assert_array_equal(h, [[vec_to_hermitian(v, 4) for v in row]
                                      for row in vecs])
    # a non-Hermitian stack too: each matrix is symmetrized on its own
    raw = h + 0.1 * rng.standard_normal(h.shape)
    for gens in (h, raw):
        np.testing.assert_array_equal(
            unitary_from_generator(gens),
            [[unitary_from_generator(g) for g in row] for row in gens])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 3), p=st.integers(1, 2),
       measured=st.sampled_from(MEASUREMENT_CHOICES),
       pin=st.sampled_from(["free", "mu_fixed"]),
       seed=st.integers(0, 2**32 - 1))
def test_theta_round_trip_property(n, p, measured, pin, seed):
    # the generators read from theta, plus the Schmidt tail when mu is free,
    # give theta back bit for bit
    base = zero_parameterization(n, p, measured,
                                 mu_fixed=np.ones(p) if pin == "mu_fixed" else None)
    theta = np.random.default_rng(seed).standard_normal(base.theta.size)
    params = replace(base, theta=theta)
    generators = params.generators()
    assert generators.shape == (1 + params.branch_count, n * p, n * p)
    parts = [hermitian_to_vec(g) for g in generators]
    if pin == "free":
        tail = theta[theta.size - p + 1:]
        parts.append(tail)
        np.testing.assert_array_equal(params.mu(), _squared_softmax(tail))
    np.testing.assert_array_equal(np.concatenate(parts), theta)
    assert decode(params).check_determinism() < 1e-10


def test_theta_is_an_owned_read_only_copy():
    theta = np.zeros(zero_parameterization(2, 2, "none").theta.size)
    params = ProtocolParameterization(2, 2, "none", theta)
    theta[0] = 1.0
    assert params.theta[0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        params.theta[0] = 1.0


@pytest.mark.parametrize("mu_fixed, length, expected", [
    (None, 80, 81), (None, 82, 81), ([1.0, 0.0], 81, 80)],
    ids=["free-short", "free-long", "pinned-with-mu-tail"])
def test_theta_of_wrong_length_rejected(mu_fixed, length, expected):
    # n = p = 2, "full": 1 + 4 generators of 16 parameters, then 1 for free mu
    with pytest.raises(ValueError, match=f"theta must hold {expected} parameters "
                                         f".* got {length}$"):
        ProtocolParameterization(2, 2, "full", np.zeros(length), mu_fixed=mu_fixed)


def test_zero_parameterization_is_bare_channel():
    ch = depolarizing(0.5)
    params = zero_parameterization(2, 1, "none")
    proto = decode(params)
    rho = random_state(2, seed=2)
    np.testing.assert_allclose(apply_protocol(proto, ch, rho), ch.apply(rho),
                               atol=1e-12)
    assert abs(objective(params, ch) - (1 - 3 * 0.5 / 4)) < 1e-12


def test_branch_count_per_measurement():
    assert zero_parameterization(2, 3, "none").branch_count == 1
    assert zero_parameterization(2, 3, "ancilla").branch_count == 3
    assert zero_parameterization(2, 3, "full").branch_count == 6


def test_measured_flag_validated():
    with pytest.raises(ValueError, match="measured"):
        zero_parameterization(2, 2, "some")


def test_qt_parameterization_is_faithful():
    for n in (2, 3):
        params = qt_parameterization(n)
        proto = decode(params)
        assert residual(proto, depolarizing(0.4, n)) < 1e-9
        assert objective(params, depolarizing(0.4, n)) > 1 - 1e-9


@pytest.mark.parametrize("mu_fixed", [
    [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, -1.0], [1e308, 1e308],
    [1e-160, 0.0]],
    ids=["zero", "nan", "inf", "negative", "norm-overflow", "norm-underflow"])
def test_degenerate_mu_fixed_rejected_before_normalizing(mu_fixed):
    # mu() divides by the norm; a warning here would fail the test too
    with pytest.raises(ValueError, match="mu_fixed must be non-negative with "
                                         "a finite, nonzero norm"):
        zero_parameterization(2, 2, "full", mu_fixed=np.array(mu_fixed))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_theta_rejected_at_construction(value):
    base = zero_parameterization(2, 2, "full")
    theta = base.theta.copy()
    theta[5] = value
    with pytest.raises(ValueError, match=f"theta must be finite, got {value} at index 5$"):
        replace(base, theta=theta)
    # the generator map multiplies every parameter, zeros included
    with np.errstate(invalid="ignore"):
        assert np.isnan(vec_to_hermitian(theta[:16], 4)).all()


@pytest.mark.parametrize("build, message", [
    (lambda: zero_parameterization(0, 2, "full"), "system dimension n .* got 0"),
    (lambda: zero_parameterization(2, 0, "none"), "local dimension p .* got 0"),
    (lambda: zero_parameterization(2, -1, "ancilla"), "local dimension p .* got -1"),
    (lambda: qt_parameterization(0), "system dimension n .* got 0"),
], ids=["n-0", "p-0", "p-negative", "qt-n-0"])
def test_dimensions_below_one_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_mu_map_uniform_at_zero():
    params = zero_parameterization(2, 4, "ancilla")
    np.testing.assert_allclose(params.mu(), np.full(4, 0.5), atol=1e-14)


def test_mu_fixed_overrides_and_normalizes():
    mu = np.array([3.0, 4.0])
    params = zero_parameterization(2, 2, "full", mu_fixed=mu)
    np.testing.assert_allclose(params.mu(), [0.6, 0.8], atol=1e-14)
    mu[:] = 0.0  # the parameterization holds a read-only copy
    np.testing.assert_allclose(params.mu(), [0.6, 0.8], atol=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        params.mu_fixed[0] = 1.0


def test_random_parameters_decode_deterministically_valid():
    rng = np.random.default_rng(3)
    for draw in range(100):
        measured = ("none", "ancilla", "full")[draw % 3]
        size = zero_parameterization(2, 2, measured).theta.size
        params = ProtocolParameterization(n=2, local_dim=2, measured=measured,
                                          theta=rng.standard_normal(size))
        proto = decode(params)  # constructor validates determinism
        assert proto.check_determinism() < 1e-10


def test_objective_invariant_under_phase_winding():
    # adding 2*pi to a generator eigenvalue leaves the unitary unchanged
    ch = depolarizing(0.3)
    params = qt_parameterization(2)
    vals, vecs = np.linalg.eigh(params.generators()[0])
    wound = (vecs * (vals + 2 * np.pi * (np.arange(vals.size) == 0))) @ vecs.conj().T
    theta = params.theta.copy()
    theta[:16] = hermitian_to_vec(wound)  # the sender's generator comes first
    wound_params = replace(params, theta=theta)
    assert abs(objective(params, ch) - objective(wound_params, ch)) < 1e-9


def test_optimize_deterministic_per_seed():
    ch = depolarizing(0.5)
    base = zero_parameterization(2, 2, "none")
    cfg = OptimizationConfig(evaluation_budget=600, restarts=2, seed=42)
    a = optimize(ch, base, cfg)
    b = optimize(ch, base, cfg)
    assert a.best_fidelity == b.best_fidelity
    assert a.best_residual == b.best_residual
    assert a.per_restart_bests == b.per_restart_bests
    assert a.evaluations_used == b.evaluations_used
    assert a.restart_traces == b.restart_traces


def test_optimize_warm_start_dominance():
    ch = depolarizing(0.5)
    base = qt_parameterization(2)
    start_value = objective(base, ch)
    cfg = OptimizationConfig(evaluation_budget=400, restarts=2, seed=5,
                             warm_start=True)
    result = optimize(ch, base, cfg)
    assert result.best_fidelity >= start_value - 1e-12
    assert result.best_fidelity >= 1 - 1e-6


def test_optimize_traces_monotone():
    ch = depolarizing(0.5)
    base = zero_parameterization(2, 2, "full")
    cfg = OptimizationConfig(evaluation_budget=900, restarts=3, seed=8)
    result = optimize(ch, base, cfg)
    for trace in result.restart_traces:
        diffs = np.diff(np.array(trace))
        assert np.all(diffs >= 0)
    assert result.best_fidelity == max(result.per_restart_bests)
    assert 0.0 <= result.best_fidelity <= 1.0 + 1e-9


def test_optimize_best_protocol_consistent():
    ch = depolarizing(0.5)
    base = zero_parameterization(2, 2, "full")
    cfg = OptimizationConfig(evaluation_budget=600, restarts=2, seed=10)
    result = optimize(ch, base, cfg)
    from teleportlab.protocol import entanglement_fidelity

    assert abs(entanglement_fidelity(result.best_protocol, ch)
               - result.best_fidelity) < 1e-10
    assert result.best_protocol.check_determinism() < 1e-10


def test_optimize_respects_fixed_mu():
    ch = depolarizing(0.5)
    mu = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    base = zero_parameterization(2, 2, "full", mu_fixed=mu)
    cfg = OptimizationConfig(evaluation_budget=600, restarts=2, seed=11)
    result = optimize(ch, base, cfg)
    np.testing.assert_allclose(result.best_protocol.resource.mu, mu, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizationConfig(evaluation_budget=0, restarts=1, seed=0)
    with pytest.raises(ValueError):
        OptimizationConfig(evaluation_budget=10, restarts=0, seed=0)


@pytest.mark.parametrize("pin", ["free", "fix_mu", "mu_fixed"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("measured", ["none", "ancilla", "full"])
def test_compiled_objective_equals_decoded_path(measured, n, pin):
    # the compiled objective must reproduce the protocol-object route bit for
    # bit, for one vector and for a stack of two
    rng = np.random.default_rng([n, len(measured), len(pin)])
    ch = random_channel(n, n * n, seed=n)
    logits = rng.standard_normal(1)
    mu_fixed = rng.random(2) if pin == "mu_fixed" else None
    if pin == "fix_mu":  # the profile these logits decode to, pinned as mu_fixed
        mu_fixed = _squared_softmax(logits)
    base = zero_parameterization(n, 2, measured, mu_fixed=mu_fixed)
    fun = _compile_objective(ch, base)
    thetas = rng.standard_normal((6, base.theta.size))
    ref = [target_overlap(decode(replace(base, theta=t)), choi(ch)) for t in thetas]
    assert [fun(t) for t in thetas] == ref
    assert fun(thetas[:2]).tolist() == ref[:2]
    assert isinstance(fun(thetas[0]), float)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 3), p=st.integers(1, 3),
       measured=st.sampled_from(MEASUREMENT_CHOICES),
       pin=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_compiled_objective_equals_decoded_path_property(n, p, measured, pin, seed):
    # bit-identity to the protocol-object route at every P (P = 1 makes the
    # ancilla mask all ones), and stacks equal to row-by-row calls
    rng = np.random.default_rng(seed)
    ch = random_channel(n, n * n, seed=seed % 97)
    base = zero_parameterization(n, p, measured,
                                 mu_fixed=rng.random(p) + 0.01 if pin else None)
    fun = _compile_objective(ch, base)
    thetas = rng.standard_normal((5, base.theta.size))
    rows = [fun(t) for t in thetas]
    assert rows == [target_overlap(decode(replace(base, theta=t)), choi(ch))
                    for t in thetas]
    for count in (1, 2, 5):
        assert fun(thetas[:count]).tolist() == rows[:count]


# Bits of seeded searches, recorded with the objective built on the
# inner-product kernel G (one GEMM per branch, then one GEMM for the overlap),
# so that any kernel change that moves one bit fails here: the bests and
# residual as float.hex, the evaluations, and a sha256 of the traces' repr.
# (a), (b), (c) are criterion 10's configs at short budgets.  Recorded with
# numpy 2.4.6 on OpenBLAS 0.3.31 (x86_64); another BLAS build may round
# differently.
_MU_B = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
_GOLDEN_SEARCHES = {
    "a-none": (lambda: depolarizing(0.5),
               lambda: zero_parameterization(2, 2, "none"), (400, 2, 2024, False),
               ["0x1.25c0c11b9f6a4p-1", "0x1.317d50f502c60p-1"],
               "0x1.df03e0f610c40p-2", 398,
               "ffe90d3751ea58f6a1ac26224f19e28b0571f21111dfe7f12dc9229dc4961c4e"),
    "b-full-pinned": (lambda: depolarizing(0.5),
                      lambda: zero_parameterization(2, 2, "full", mu_fixed=_MU_B),
                      (400, 2, 2024, False),
                      ["0x1.0dd5937aebe91p-1", "0x1.dcd638049a527p-2"],
                      "0x1.25902f84ed24ap-1", 398,
                      "ddc985d35847bcd7a49bcde5ba7ca2f83c23922db7c36864ca6484ce13833a2b"),
    "c-qt-warm": (lambda: depolarizing(0.5), lambda: qt_parameterization(2),
                  (200, 2, 2024, True),
                  ["0x1.ffffffffffff8p-1", "0x1.7beb968fc7b14p-2"],
                  "0x1.69e965df8d1cdp-50", 200,
                  "0bfa2441a650129647bc70c4535a5ba946f5803b867da2e5166a9c3bff0c24f4"),
    "ancilla": (lambda: depolarizing(0.5),
                lambda: zero_parameterization(2, 2, "ancilla"), (300, 2, 7, False),
                ["0x1.298a2a187ad9ep-1", "0x1.30c47ff93ca96p-1"],
                "0x1.e8d78c00ad83dp-2", 296,
                "5450195bf15cfe7f3230e9e48d3b296f2b72a078e0cf779daebb849b83589d14"),
    "n3-full": (lambda: random_channel(3, 9, seed=3),
                lambda: zero_parameterization(3, 3, "full"), (100, 1, 11, False),
                ["0x1.2e54cbcab9021p-3"], "0x1.d2d401f0319c5p-1", 100,
                "e97230524329f9f0e03dad780895e526e958f4279c7f6aefc20d83bee542c6f9"),
    "zero-warm": (lambda: depolarizing(0.5),
                  lambda: zero_parameterization(2, 2, "full", mu_fixed=_MU_B),
                  (100, 1, 3, True),
                  ["0x1.7ffffffffffffp-2"], "0x1.7ffffffffffffp-1", 100,
                  "64e7075af3ea0b0ec6c227e936b3ed3f805a402a54c569dc29b795b7c6045163"),
    "n3-p1-none": (lambda: random_channel(3, 9, seed=4),
                   lambda: zero_parameterization(3, 1, "none"), (60, 1, 12, False),
                   ["0x1.cc8b69dcb3cffp-3"], "0x1.c13ad076b13eep-1", 58,
                   "9cea69d37ebbe47ca852ec553ee5a4fa78951fa19ed8e0e15d5ffeccb1930612"),
}


@pytest.mark.parametrize("name", _GOLDEN_SEARCHES)
def test_seeded_search_matches_recorded_bits(name):
    ch, base, (budget, restarts, seed, warm), bests, resid, evals, traces = (
        _GOLDEN_SEARCHES[name])
    result = optimize(ch(), base(), OptimizationConfig(budget, restarts, seed,
                                                       warm_start=warm))
    assert [float.hex(b) for b in result.per_restart_bests] == bests
    assert float.hex(result.best_residual) == resid
    assert result.evaluations_used == evals
    assert hashlib.sha256(repr(result.restart_traces).encode()).hexdigest() == traces


def test_compiled_objective_rejects_dimension_mismatch():
    base = zero_parameterization(2, 2, "full")
    with pytest.raises(ValueError, match="channel dim 3 .* dim 2"):
        optimize(depolarizing(0.3, 3), base,
                 OptimizationConfig(evaluation_budget=8, restarts=1, seed=0))
    fun = _compile_objective(depolarizing(0.3), base)
    with pytest.raises(ValueError, match="parameter shape"):
        fun(np.zeros(3))


@pytest.mark.parametrize("index, message", [
    (3, r"theta must be finite, got inf at index 3$"),
    (-1, r"theta must be finite, got inf at index 32$"),
], ids=["generator", "schmidt-parameter"])
def test_compiled_objective_keeps_decode_checks(index, message):
    base = zero_parameterization(2, 2, "none")
    theta = base.theta.copy()
    theta[index] = np.inf
    fun = _compile_objective(depolarizing(0.3), base)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            fun(np.stack([np.zeros_like(theta), theta]))
        with pytest.raises(ValueError, match=message):
            decode(replace(base, theta=theta))


def test_evaluation_budget_is_hard_cap():
    ch = depolarizing(0.5)
    base = zero_parameterization(2, 2, "none")
    for budget in (4, 5, 7, 10, 23, 41):
        for restarts in (1, 2, 3, 5):
            if restarts > budget // 4:
                with pytest.raises(ValueError, match="evaluation budget"):
                    OptimizationConfig(budget, restarts, seed=0)
                continue
            result = optimize(ch, base, OptimizationConfig(budget, restarts, seed=1))
            assert result.evaluations_used <= budget
            assert len(result.per_restart_bests) == restarts


def test_sweep_structure_and_monotonicity():
    ch = depolarizing(0.5)
    grid = [0.0, np.pi / 12, np.pi / 6, np.pi / 4]
    cfg = OptimizationConfig(evaluation_budget=6000, restarts=4, seed=7)
    rows = sweep_mu(ch, grid, cfg)
    assert len(rows) == len(grid)
    for (row_theta, sum_mu, _), theta in zip(rows, grid):
        assert row_theta == theta
        assert abs(sum_mu - (np.cos(theta) + np.sin(theta))) < 1e-12
    values = [best for _, _, best in rows]
    for left, right in zip(values, values[1:]):
        assert right >= left - 0.02
    assert int(np.argmax(values)) == len(grid) - 1
    assert values[0] < 1.0
