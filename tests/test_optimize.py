import hashlib
import importlib
import itertools
import math
import re
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

from dense_reference import ascend_reference
from teleportlab.channels import choi, depolarizing, identity_channel, random_channel
from teleportlab.cli import main
from teleportlab.optimize import (
    DIRECTION_BLOCK,
    MEASUREMENT_CHOICES,
    SPECULATE_PARAMETERS,
    STEP_INIT,
    STOP_DELTA,
    OptimizationConfig,
    ProtocolParameterization,
    _ascend,
    _compile_objective,
    _directions,
    _hermitian_map,
    _squared_softmax,
    decode,
    generator_from_unitary,
    hermitian_to_vec,
    optimize,
    qt_parameterization,
    sweep_mu,
    unitary_from_generator,
    vec_to_hermitian,
    zero_parameterization,
)
from teleportlab.protocol import (DETERMINISM_TOL, _check_determinism,
                                  apply_protocol, entanglement_fidelity,
                                  residual, target_overlap)
from teleportlab.qmath import haar_unitary, random_state


def test_hermitian_vec_round_trip():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    np.testing.assert_allclose(vec_to_hermitian(hermitian_to_vec(h), 4), h,
                               atol=1e-14)


@pytest.mark.parametrize("h,message", [
    (np.arange(6.0).reshape(2, 3), r"generator shape \(2, 3\) is not square"),
    (np.zeros(4), r"generator shape \(4,\) is not square"),
    ([[1, 5], [0, 2]], r"not Hermitian: max \|H - H\^dag\| = 5\.000e\+00"),
    ([[1, 1e-9], [0, 2]], r"not Hermitian: max \|H - H\^dag\| = 1\.000e-09"),
    ([[np.nan, 0], [0, 1]], r"not Hermitian: max \|H - H\^dag\| = nan"),
])
def test_hermitian_to_vec_rejects_what_it_would_drop_or_mirror(h, message):
    with pytest.raises(ValueError, match=message):
        hermitian_to_vec(h)


@pytest.mark.parametrize("vec", [np.zeros(5), np.zeros((3, 9)), 1.0])
def test_vec_to_hermitian_rejects_a_length_other_than_d_squared(vec):
    shape = re.escape(str(np.shape(vec)))
    with pytest.raises(ValueError, match=rf"shape {shape} does not end in "
                                         r"d\^2 = 4 for d = 2"):
        vec_to_hermitian(vec, 2)


def test_hermitian_map_is_cached_and_read_only():
    assert _hermitian_map(3) is _hermitian_map(3)
    with pytest.raises(ValueError, match="read-only"):
        _hermitian_map(3)[0, 0] = 2.0


def test_hermitian_map_cache_keeps_a_bounded_number_of_maps():
    # each map holds 16 d^4 bytes: a process that searches many shapes keeps
    # only the most recent few
    bound = _hermitian_map.cache_info().maxsize
    ch = depolarizing(0.5)
    cfg = OptimizationConfig(evaluation_budget=4, restarts=1, seed=0)
    for p in range(1, bound + 3):
        optimize(ch, zero_parameterization(2, p, "none"), cfg)
    assert _hermitian_map.cache_info().currsize == bound


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
    assert abs(entanglement_fidelity(proto, ch) - (1 - 3 * 0.5 / 4)) < 1e-12


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
        assert entanglement_fidelity(proto, depolarizing(0.4, n)) > 1 - 1e-9


@pytest.mark.parametrize("weights", [
    [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, -1.0], [1e308, 1e308],
    [1e-160, 0.0], [0.6, 0.8, 0.0]],
    ids=["zero", "nan", "inf", "negative", "norm-overflow", "norm-underflow",
         "wrong-length"])
def test_degenerate_mu_fixed_rejected_before_normalizing(weights):
    # both doors for a caller's Schmidt weights, a pinned mu_fixed and
    # teleport --mu, reject them before normalizing, with one message that
    # names the door; the quotient divides by the norm, and a warning here
    # would fail the test too
    reason = (f" must hold 2 weights, got {len(weights)}" if len(weights) != 2
              else f" must be non-negative with a finite, nonzero norm, got {weights}")
    with pytest.raises(ValueError, match=f"^mu_fixed{re.escape(reason)}$"):
        zero_parameterization(2, 2, "full", mu_fixed=np.array(weights))
    result = CliRunner().invoke(
        main, ["teleport", "--depolarizing", "0.5", "--random", "3",
               "--mu=" + ",".join(map(str, weights))], catch_exceptions=False)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"error: --mu{reason}"]


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


def _never_built(*args):
    raise AssertionError(f"built before the size check: {args}")


def test_qt_parameterization_checks_n_before_building(monkeypatch):
    # N = P = 9 is a search of d = 81 > SEARCH_DIM_MAX: the message names
    # the n the caller passed, and no teleportation protocol is built first
    monkeypatch.setattr(_OPTIMIZE, "qt_protocol", _never_built)
    with pytest.raises(ValueError, match=r"^system dimension n must lie in 1\.\.8, got 9$"):
        qt_parameterization(9)


def test_sweep_checks_the_channel_dim_before_searching(monkeypatch):
    # a sweep searches protocols of N = the channel dim, so N is bounded by 8
    monkeypatch.setattr(_OPTIMIZE, "zero_parameterization", _never_built)
    cfg = OptimizationConfig(evaluation_budget=10, restarts=1, seed=0)
    with pytest.raises(ValueError, match=r"^channel dimension must lie in 2\.\.8, got 9$"):
        sweep_mu(identity_channel(9), [0.5], cfg)


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
    assert abs(entanglement_fidelity(decode(params), ch)
               - entanglement_fidelity(decode(wound_params), ch)) < 1e-9


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
    start_value = entanglement_fidelity(decode(base), ch)
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


@pytest.mark.parametrize("field, value", [
    ("evaluation_budget", 40.5), ("restarts", 2.0), ("seed", 1.5), ("seed", "3"),
    ("restarts", True), ("seed", False)])
def test_config_rejects_non_integer_fields(field, value):
    valid = {"evaluation_budget": 40, "restarts": 2, "seed": 0}
    with pytest.raises(TypeError, match=f"{field} must be an integer, got {value!r}"):
        OptimizationConfig(**{**valid, field: value})
    OptimizationConfig(**{**valid, field: np.int64(valid[field])})  # numpy ints pass


@pytest.mark.parametrize("value", ["no", 0, 1, None, np.int64(1)])
def test_config_rejects_non_bool_warm_start(value):
    # a truthy string would warm-start restart 0
    message = f"^warm_start must be a bool, got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=message):
        OptimizationConfig(8, 1, 0, warm_start=value)
    assert OptimizationConfig(8, 1, 0, warm_start=np.True_).warm_start  # numpy bools pass


@pytest.mark.parametrize("pin", ["free", "fix_mu", "mu_fixed"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("measured", ["none", "ancilla", "full"])
def test_compiled_objective_equals_decoded_path(measured, n, pin):
    # the compiled objective must reproduce the protocol-object route bit for
    # bit, for a stack of one point and for a stack of two
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
    assert [fun(t[None])[0] for t in thetas] == ref
    assert fun(thetas[:2]).tolist() == ref[:2]


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
    thetas = rng.standard_normal((100, base.theta.size))
    rows = [fun(t[None])[0] for t in thetas]
    assert rows[:5] == [target_overlap(decode(replace(base, theta=t)), choi(ch))
                        for t in thetas[:5]]
    # 40 and 100 rows: the stacks of a lockstep round of 20 restarts
    for count in (1, 2, 5, 40, 100):
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
               # re-recorded for the control superoperator
               "0x1.df03e0f610c42p-2", 398,
               "c3a03058a686bb539aa9dd24e22ab5ebe295bdd754203c2a7787b0a62448d8ba"),
    "b-full-pinned": (lambda: depolarizing(0.5),
                      lambda: zero_parameterization(2, 2, "full", mu_fixed=_MU_B),
                      (400, 2, 2024, False),
                      ["0x1.0dd5937aebe8ep-1", "0x1.dcd638049a536p-2"],
                      "0x1.25902f84ed24bp-1", 398,
                      "f3f2541a8cd7f2eaeccc3d9ceddc00a37bee8be338c55c9c47d6d0eb3473bf8d"),
    "c-qt-warm": (lambda: depolarizing(0.5), lambda: qt_parameterization(2),
                  (200, 2, 2024, True),
                  ["0x1.ffffffffffff8p-1", "0x1.7beb968fc7b10p-2"],
                  # re-recorded for the control superoperator
                  "0x1.7a81f944601cep-50", 200,
                  "33f21b5f7363da9796df8d9d155a57d3f037678396e5fe84a14d26d0fdb00ebe"),
    "ancilla": (lambda: depolarizing(0.5),
                lambda: zero_parameterization(2, 2, "ancilla"), (300, 2, 7, False),
                ["0x1.298a2a187ad9dp-1", "0x1.30c47ff93ca94p-1"],
                "0x1.e8d78c00ad83ep-2", 296,
                "a3801b4e7d98380aed035cca9c9defeca9acff44e2a646548af4e23a98a92aef"),
    "n3-full": (lambda: random_channel(3, 9, seed=3),
                lambda: zero_parameterization(3, 3, "full"), (100, 1, 11, False),
                # re-recorded for the Choi state built as one Gram product
                ["0x1.2e54cbcab9028p-3"], "0x1.d2d401f0319c2p-1", 100,
                "e944abe8c9d761e1bdfe86ef72e009578306bf72d70d1dfb24b88c7e45df154f"),
    "zero-warm": (lambda: depolarizing(0.5),
                  lambda: zero_parameterization(2, 2, "full", mu_fixed=_MU_B),
                  (100, 1, 3, True),
                  ["0x1.7ffffffffffffp-2"], "0x1.7ffffffffffffp-1", 100,
                  "64e7075af3ea0b0ec6c227e936b3ed3f805a402a54c569dc29b795b7c6045163"),
    "n3-p1-none": (lambda: random_channel(3, 9, seed=4),
                   lambda: zero_parameterization(3, 1, "none"), (60, 1, 12, False),
                   # re-recorded for the Choi state built as one Gram product
                   ["0x1.cc8b69dcb3d03p-3"], "0x1.c13ad076b13efp-1", 58,
                   "17d9a2e8010a11561358a5a391fa57cfc97f445b97fdefa9c7a772a8ad7f52f0"),
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
    # the objective takes a (B, dim) stack with B >= 1 and names any other
    # shape, a lone point and an empty stack too
    dim = base.theta.size
    for shape in ((0, dim), (3, 1, dim), (), (dim,)):
        message = (rf"^parameter shape {re.escape(str(shape))} is not "
                   rf"\(B, dim\) with B >= 1, dim {dim}$")
        with pytest.raises(ValueError, match=message):
            fun(np.zeros(shape))


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


# the module itself: the package attribute `optimize` is the function
_OPTIMIZE = importlib.import_module("teleportlab.optimize")


def test_objective_never_writes_its_input():
    # optimize hands a lone restart's own stack to the objective, and a
    # candidate is a one-row view of its step's stack: read-only input passes
    ch = depolarizing(0.5)
    base = zero_parameterization(2, 2, "none")
    fun = _compile_objective(ch, base)
    thetas = np.random.default_rng(4).standard_normal((5, base.theta.size))
    expected = fun(thetas.copy())
    thetas.flags.writeable = False
    np.testing.assert_array_equal(fun(thetas), expected)
    assert fun(thetas[2:3])[0] == expected[2]


def test_optimize_result_equals_a_run_on_read_only_views(monkeypatch):
    ch = depolarizing(0.5)
    cfg = OptimizationConfig(evaluation_budget=100, restarts=1, seed=9)
    base = zero_parameterization(2, 2, "none")
    plain = optimize(ch, base, cfg)
    compile_objective = _OPTIMIZE._compile_objective

    def read_only(ch, base):
        fun = compile_objective(ch, base)

        def on_a_view(theta):
            view = theta.view()
            view.flags.writeable = False
            return fun(view)

        return on_a_view

    monkeypatch.setattr(_OPTIMIZE, "_compile_objective", read_only)
    viewed = optimize(ch, base, cfg)
    assert viewed.per_restart_bests == plain.per_restart_bests
    assert viewed.restart_traces == plain.restart_traces
    assert viewed.evaluations_used == plain.evaluations_used
    assert viewed.best_residual == plain.best_residual
    np.testing.assert_array_equal(viewed.best_protocol.receiver_unitaries,
                                  plain.best_protocol.receiver_unitaries)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 400), steps=st.integers(1, 3 * DIRECTION_BLOCK + 1),
       seed=st.integers(0, 2**32 - 1))
@example(dim=33, steps=DIRECTION_BLOCK + 1, seed=0)  # search (a): odd dim
@example(dim=80, steps=2 * DIRECTION_BLOCK, seed=1)  # search (b)
@example(dim=1, steps=DIRECTION_BLOCK - 1, seed=2)
def test_block_directions_equal_per_step_draws_property(dim, steps, seed):
    # the ascent draws its directions a block of rows at a time; the rows
    # must be the per-step draws of a twin generator, across block ends and
    # at odd dims (the generator keeps half a 64-bit output between draws)
    rows = list(itertools.islice(
        _directions(np.random.default_rng([seed, 1]), dim), steps))
    twin = np.random.default_rng([seed, 1])
    per_step = [twin.integers(0, 2, dim) * 2.0 - 1.0 for _ in range(steps)]
    np.testing.assert_array_equal(rows, per_step)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 400), step=st.floats(STOP_DELTA, STEP_INIT),
       up=st.floats(1e-3, 1.0), down=st.floats(1e-3, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(dim=33, step=STEP_INIT, up=0.625, down=0.5, seed=0)  # search (a)
@example(dim=80, step=STOP_DELTA, up=0.5, down=0.625, seed=1)  # search (b)
@example(dim=33, step=STEP_INIT, up=0.5, down=0.5, seed=2)  # no candidate
@example(dim=398, step=0.019076021223847307, up=0.36777360700986556,
         down=0.3677736070098656, seed=3)  # 9 ulps between the routes
def test_closed_form_candidate_is_the_normalized_gradient_step_property(
        dim, step, up, down, seed):
    # the directions are +-1, so step grad / |grad| with grad = (up - down)
    # / (2 step) delta is sign(up - down) (step / sqrt(dim)) delta exactly.
    # The closed form rounds three times (the root, its inverse and the
    # product), so it is within 3 ulps of step / sqrt(dim); the old route
    # rounds the sum of dim squares too (at most 9 ulps from the closed form
    # in 340,000 draws over dim 1..400)
    delta = next(_directions(np.random.default_rng([seed, 0]), dim))
    shrink = 1.0 / math.sqrt(dim)
    ulp = np.spacing(step * shrink)
    if up != down:
        closed = (step * delta) * (shrink if up > down else -shrink)
        np.testing.assert_array_equal(closed, np.copysign(step * shrink, closed))
        np.testing.assert_array_equal(np.sign(closed), np.sign(up - down) * delta)
        exact = Decimal(step) / Decimal(dim).sqrt()
        assert abs(Decimal(step * shrink) - exact) <= 3 * Decimal(ulp)
        grad = (up - down) / (2.0 * step) * delta
        normalized = step * grad / math.sqrt(grad.dot(grad))
        assert np.abs(closed - normalized).max() <= 16 * ulp
    # the first step of a restart at the origin that does not speculate: the
    # closed-form candidate, one row, after up != down; none after up == down,
    # whose next stack is the next probe pair
    ascent = _ascend(np.zeros(dim), 10, np.random.default_rng([seed, 0]), False)
    np.testing.assert_array_equal(next(ascent)[1:],
                                  (STEP_INIT * delta) * np.array([[1.0], [-1.0]]))
    rows = ascent.send([0.0, up, down])
    if up == down:
        assert rows.shape == (2, dim)
    else:
        sign = shrink if up > down else -shrink
        np.testing.assert_array_equal(rows, [(STEP_INIT * delta) * sign])


def _sequential_runs(ch, base, cfg):
    """optimize's restarts run one by one through the reference ascent: per
    restart its (best, theta, evaluations, trace, hit_budget) and the number
    of objective calls it made."""
    fun = _compile_objective(ch, base)
    runs = []
    for restart in range(cfg.restarts):
        calls = []

        def counted(theta):  # the reference passes lone points as vectors
            calls.append(theta)
            values = fun(np.atleast_2d(theta))
            return values if theta.ndim == 2 else float(values[0])

        rng = np.random.default_rng([cfg.seed, restart])
        warm = cfg.warm_start and restart == 0
        theta0 = base.theta if warm else rng.standard_normal(base.theta.size)
        budget = cfg.evaluation_budget // cfg.restarts
        runs.append((ascend_reference(counted, theta0, budget, rng), len(calls)))
    return runs


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(measured=st.sampled_from(MEASUREMENT_CHOICES), p=st.integers(1, 2),
       strength=st.sampled_from([0.5, 1.0]), budget=st.integers(4, 600),
       restarts=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       start=st.sampled_from(["random", "zero", "qt"]))
# a lone restart whose step decays below STOP_DELTA; two speculating
# restarts that end rounds apart; criterion 10 (c)'s start
@example(measured="none", p=2, strength=1.0, budget=600, restarts=1, seed=0,
         start="random")
@example(measured="full", p=1, strength=1.0, budget=600, restarts=2, seed=8,
         start="zero")
@example(measured="full", p=2, strength=0.5, budget=200, restarts=2, seed=2024,
         start="qt")
def test_lockstep_restarts_equal_sequential_runs_property(
        measured, p, strength, budget, restarts, seed, start):
    # depolarizing(1.0) scores every point alike up to rounding, so steps
    # decay and restarts end in different rounds; "zero" and "qt" warm-start
    # restart 0
    ch = depolarizing(strength)
    base = (qt_parameterization(2) if start == "qt"
            else zero_parameterization(2, p, measured))
    cfg = OptimizationConfig(budget, min(restarts, budget // 4), seed,
                             warm_start=start != "random")
    decoded = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_OPTIMIZE, "decode",
                      lambda params: decoded.append(params.theta) or decode(params))
        result = optimize(ch, base, cfg)
    bests, thetas, evals, traces, hit_budget = zip(
        *(run for run, _ in _sequential_runs(ch, base, cfg)))
    assert result.per_restart_bests == bests
    assert result.evaluations_used == sum(evals)
    assert result.restart_traces == traces
    assert result.budget_exhausted == any(hit_budget)
    assert len(decoded) == 1
    np.testing.assert_array_equal(decoded[0], thetas[int(np.argmax(bests))])


def _count_rows(monkeypatch):
    """Wrap optimize's compiled objective; the list it returns gets the row
    count of every call."""
    rows = []
    compile_objective = _OPTIMIZE._compile_objective

    def counting(ch, base):
        fun = compile_objective(ch, base)

        def counted(theta):
            rows.append(len(theta))
            return fun(theta)

        return counted

    monkeypatch.setattr(_OPTIMIZE, "_compile_objective", counting)
    return rows


@pytest.mark.parametrize("strength, measured, budget, restarts, seed", [
    (0.5, "none", 1400, 7, 2024), (0.5, "full", 300, 3, 1),
    (0.5, "ancilla", 600, 5, 3), (1.0, "none", 3200, 16, 14),
    (1.0, "none", 2800, 7, 0)])
def test_lockstep_round_is_one_call_of_the_rows_read(
        monkeypatch, strength, measured, budget, restarts, seed):
    # in these searches the restarts hold more than SPECULATE_PARAMETERS
    # parameters, so no round speculates, however many restarts have left:
    # each restart needs one stack per reference call, less the start point
    # that rides with its first probes, and each round is one call.  At
    # depolarizing(1.0) rounding decides each step, so the restarts end
    # rounds apart (here 5, 4 and 7 of them after 131, 132 and 133 reference
    # calls at budget 3200; at budget 2800 the 7 restarts end after 262 to
    # 266, and from the first end on, 6 restarts hold 198 parameters)
    ch = depolarizing(strength)
    base = zero_parameterization(2, 2, measured)
    cfg = OptimizationConfig(budget, restarts, seed)
    calls = sorted(count for _, count in _sequential_runs(ch, base, cfg))
    assert restarts * base.theta.size > SPECULATE_PARAMETERS
    rows = _count_rows(monkeypatch)
    result = optimize(ch, base, cfg)
    assert len(rows) == calls[-1] - 1
    assert sum(rows) == result.evaluations_used


@pytest.mark.parametrize("measured, budget, restarts, seed", [
    ("none", 4, 1, 0), ("none", 5, 1, 1), ("full", 60, 1, 2),
    ("ancilla", 200, 1, 3), ("none", 600, 1, 4), ("none", 400, 2, 2024),
    ("ancilla", 300, 2, 5), ("none", 600, 3, 6)])
def test_speculating_round_is_one_call_per_step(
        monkeypatch, measured, budget, restarts, seed):
    # at most SPECULATE_PARAMETERS parameters in all: the start point rides
    # with the first probes, and each call carries every restart's probe
    # pair with both candidates, one of which it does not read
    base = zero_parameterization(2, 2, measured)
    assert restarts * base.theta.size <= SPECULATE_PARAMETERS
    rows = _count_rows(monkeypatch)
    result = optimize(depolarizing(0.5), base,
                      OptimizationConfig(budget, restarts, seed))
    steps = max(len(trace) for trace in result.restart_traces)  # plus one
    assert len(rows) <= steps
    assert rows[0] <= 5 * restarts
    assert max(rows[1:], default=0) <= 4 * restarts
    assert sum(rows) <= result.evaluations_used + restarts * len(rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mu_fixed", [None, _MU_B], ids=["none", "full-pinned"])
def test_search_shaped_restart_is_33_calls_of_133_rows(monkeypatch, mu_fixed, seed):
    # a lone restart of a search workload config, N = P = 2 and budget 100:
    # the first call is the start point, the probe pair and both candidates,
    # and each of the 32 later steps one call of 4 rows, 3 of them read
    measured = "none" if mu_fixed is None else "full"
    base = zero_parameterization(2, 2, measured, mu_fixed=mu_fixed)
    rows = _count_rows(monkeypatch)
    result = optimize(depolarizing(0.5), base, OptimizationConfig(100, 1, seed))
    assert rows == [5] + [4] * 32
    assert result.evaluations_used == 100


def _spy_determinism(monkeypatch):
    """Wrap optimize's determinism check; the list it returns gets the
    (senders, receivers) of every call the objective's Gram gate defers."""
    calls = []
    check = _OPTIMIZE._check_determinism

    def spy(senders, receivers):
        calls.append((senders, receivers))
        return check(senders, receivers)

    monkeypatch.setattr(_OPTIMIZE, "_check_determinism", spy)
    return calls


@pytest.mark.parametrize("where", ["below-gate", "between", "above-tol"])
@pytest.mark.parametrize("n, p", [(2, 2), (3, 1)])
@pytest.mark.parametrize("measured", MEASUREMENT_CHOICES)
def test_determinism_gate_defers_at_its_bound(monkeypatch, measured, n, p, where):
    # unitaries scaled by 1 + eps put every Gram deviation near 2 eps: below
    # tol/(2d) the gate passes alone; from there to tol the determinism check
    # runs and passes; above tol it raises the message decode raises
    d = n * p
    two_eps = {"below-gate": 0.5 * DETERMINISM_TOL / (2 * d),
               "between": 1.5 * DETERMINISM_TOL / (2 * d),
               "above-tol": 2 * DETERMINISM_TOL}[where]
    base = zero_parameterization(n, p, measured)
    thetas = np.random.default_rng(d).standard_normal((2, base.theta.size))
    fun = _compile_objective(depolarizing(0.5, n), base)
    expi = _OPTIMIZE._expi
    monkeypatch.setattr(_OPTIMIZE, "_expi", lambda h: expi(h) * (1 + two_eps / 2))
    deferred = _spy_determinism(monkeypatch)
    if where != "above-tol":
        assert np.isfinite(fun(thetas)).all()
        # past the gate, the check runs on each point of the stack
        assert len(deferred) == (2 if where == "between" else 0)
        return
    with pytest.raises(ValueError, match="not deterministic") as decoded:
        decode(replace(base, theta=thetas[0]))  # its unitaries are scaled too
    with pytest.raises(ValueError, match=f"^{re.escape(str(decoded.value))}$"):
        fun(thetas)
    assert len(deferred) == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 3), p=st.integers(1, 3),
       measured=st.sampled_from(MEASUREMENT_CHOICES),
       log_eps=st.floats(-14, -8), seed=st.integers(0, 2**32 - 1))
@example(n=3, p=3, measured="full", log_eps=-14, seed=0)
@example(n=2, p=1, measured="none", log_eps=-8, seed=0)
def test_determinism_gate_passes_only_what_the_check_passes(n, p, measured,
                                                            log_eps, seed):
    # nearly unitary operators U (I + eps K), K Hermitian: wherever the Gram
    # gate passes alone, decode's check passes on the masked branches too
    d = n * p
    rng = np.random.default_rng(seed)
    base = zero_parameterization(n, p, measured)
    projections = base.projections()
    k = rng.standard_normal((1 + len(projections), d, d, 2)).view(complex)[..., 0]
    k = k + k.conj().swapaxes(-1, -2)
    u = np.array([haar_unitary(d, rng) for _ in k]) @ (np.eye(d) + 10.0**log_eps * k)
    fun = _compile_objective(depolarizing(0.5, n), base)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_OPTIMIZE, "_expi", lambda h: u[None])
        deferred = _spy_determinism(mp)
        try:
            fun(base.theta[None])
        except ValueError:
            assert deferred  # only the deferred check raises
    if not deferred:
        assert _check_determinism(projections @ u[0], u[1:]) <= DETERMINISM_TOL


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
