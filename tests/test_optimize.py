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
    _pack,
    _unpack,
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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 3), p=st.integers(1, 2),
       measured=st.sampled_from(MEASUREMENT_CHOICES),
       pin=st.sampled_from(["free", "fix_mu", "mu_fixed"]),
       seed=st.integers(0, 2**32 - 1))
def test_pack_unpack_round_trip_property(n, p, measured, pin, seed):
    base = zero_parameterization(n, p, measured,
                                 mu_fixed=np.ones(p) if pin == "mu_fixed" else None)
    fix_mu = pin == "fix_mu"
    theta = np.random.default_rng(seed).standard_normal(_pack(base, fix_mu).size)
    params = _unpack(base, theta, fix_mu)
    packed = _pack(params, fix_mu)
    np.testing.assert_array_equal(packed, theta)
    back = _unpack(base, packed, fix_mu)
    for name in ("sender_generator", "receiver_generators", "mu_params"):
        np.testing.assert_array_equal(getattr(back, name), getattr(params, name))
    assert decode(back).check_determinism() < 1e-10


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


def test_mu_map_uniform_at_zero():
    params = zero_parameterization(2, 4, "ancilla")
    np.testing.assert_allclose(params.mu(), np.full(4, 0.5), atol=1e-14)


def test_mu_fixed_overrides_and_normalizes():
    mu = np.array([3.0, 4.0])
    params = zero_parameterization(2, 2, "full", mu_fixed=mu)
    np.testing.assert_allclose(params.mu(), [0.6, 0.8], atol=1e-14)


def test_random_parameters_decode_deterministically_valid():
    rng = np.random.default_rng(3)
    for draw in range(100):
        d = 4
        params = ProtocolParameterization(
            n=2,
            local_dim=2,
            measured=("none", "ancilla", "full")[draw % 3],
            sender_generator=vec_to_hermitian(rng.standard_normal(d * d), d),
            receiver_generators=np.stack([
                vec_to_hermitian(rng.standard_normal(d * d), d)
                for _ in range({"none": 1, "ancilla": 2, "full": 4}[
                    ("none", "ancilla", "full")[draw % 3]])
            ]),
            mu_params=rng.standard_normal(1),
        )
        proto = decode(params)  # constructor validates determinism
        assert proto.check_determinism() < 1e-10


def test_objective_invariant_under_phase_winding():
    # adding 2*pi to a generator eigenvalue leaves the unitary unchanged
    ch = depolarizing(0.3)
    params = qt_parameterization(2)
    h = params.sender_generator
    vals, vecs = np.linalg.eigh(h)
    wound = (vecs * (vals + 2 * np.pi * (np.arange(vals.size) == 0))) @ vecs.conj().T
    from dataclasses import replace

    wound_params = replace(params, sender_generator=wound)
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
    zero = zero_parameterization(n, 2, measured)
    base = ProtocolParameterization(
        n=n, local_dim=2, measured=measured,
        sender_generator=zero.sender_generator,
        receiver_generators=zero.receiver_generators,
        mu_params=rng.standard_normal(1),
        mu_fixed=rng.random(2) if pin == "mu_fixed" else None,
    )
    fix_mu = pin == "fix_mu"
    fun = _compile_objective(ch, base, fix_mu)
    thetas = rng.standard_normal((6, _pack(base, fix_mu).size))
    ref = [target_overlap(decode(_unpack(base, t, fix_mu)), choi(ch)) for t in thetas]
    assert [fun(t) for t in thetas] == ref
    assert fun(thetas[:2]).tolist() == ref[:2]
    assert isinstance(fun(thetas[0]), float)


def test_compiled_objective_rejects_dimension_mismatch():
    base = zero_parameterization(2, 2, "full")
    with pytest.raises(ValueError, match="channel dim 3 .* dim 2"):
        optimize(depolarizing(0.3, 3), base,
                 OptimizationConfig(evaluation_budget=8, restarts=1, seed=0))
    fun = _compile_objective(depolarizing(0.3), base, False)
    with pytest.raises(ValueError, match="parameter shape"):
        fun(np.zeros(3))


@pytest.mark.parametrize("index, message", [
    (3, "not deterministic: operators have non-finite entries"),
    (-1, "Schmidt coefficients must be finite"),  # squared softmax of inf is NaN
])
def test_compiled_objective_keeps_decode_checks(index, message):
    base = zero_parameterization(2, 2, "none")
    theta = _pack(base, False)
    theta[index] = np.inf
    fun = _compile_objective(depolarizing(0.3), base, False)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            fun(np.stack([np.zeros_like(theta), theta]))
        with pytest.raises(ValueError, match=message):
            decode(_unpack(base, theta, False))


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
    for row, theta in zip(rows, grid):
        assert abs(row.sum_mu - (np.cos(theta) + np.sin(theta))) < 1e-12
        assert row.seed == 7
    values = [row.best_fidelity for row in rows]
    for left, right in zip(values, values[1:]):
        assert right >= left - 0.02
    assert int(np.argmax(values)) == len(grid) - 1
    assert values[0] < 1.0
