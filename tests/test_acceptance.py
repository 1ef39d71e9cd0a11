"""Acceptance suite: one test per criterion, each printed as a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines with measured values and elapsed times.
"""

import functools
import itertools
import time

import numpy as np

from teleportlab.channels import (
    choi,
    depolarizing,
    depolarizing_locc_simulable,
    kraus_from_choi,
    random_channel,
    rank,
)
from teleportlab.optimize import (
    OptimizationConfig,
    optimize,
    qt_parameterization,
    zero_parameterization,
)
from teleportlab.protocol import (
    AncillaResource,
    bare_protocol,
    control_map,
    effective_choi,
    random_protocol,
    residual,
)
from teleportlab.qmath import fidelity, projector, random_pure, random_state
from teleportlab.teleport import qt_protocol, teleport
from teleportlab.theorem import (
    cauchy_schwarz_check,
    entanglement_bound,
    nielsen_convertible,
    no_cc_contradiction,
)

from test_theorem import doubly_stochastic_feasible, grid_schmidt_vectors

FEASIBLE_COMBOS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 1), (4, 2), (4, 4)]


def _report(num: int, message: str, started: float, limit: float):
    elapsed = time.time() - started
    assert elapsed <= limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) - {message}")


def test_criterion_01_teleportation_sufficiency():
    started = time.time()
    channels = []
    for n in (2, 3):
        for p in (0.25, 0.5, 1.0):
            channels.append((n, depolarizing(p, n)))
    seed = 0
    while len(channels) < 100:
        n = 2 if seed % 2 == 0 else 3
        channels.append((n, random_channel(n, n * n, seed=seed)))
        seed += 1
    worst = 1.0
    for idx, (n, ch) in enumerate(channels):
        rho = random_state(n, seed=idx + 10_000)
        worst = min(worst, fidelity(teleport(rho, ch), rho))
    assert worst >= 1 - 1e-9
    _report(1, f"100 triples, worst fidelity {worst:.3e}", started, 10.0)


def test_criterion_02_choi_round_trip():
    started = time.time()
    worst = 0.0
    for seed in range(50):
        n = 2 if seed % 2 == 0 else 3
        target_rank = (seed % (n * n)) + 1
        r = choi(random_channel(n, target_rank, seed=seed))
        back = choi(kraus_from_choi(r))
        worst = max(worst, float(np.linalg.norm(back.matrix - r.matrix)))
    assert worst <= 1e-10
    _report(2, f"50 channels, worst Frobenius gap {worst:.3e}", started, 5.0)


def test_criterion_03_rank_correctness():
    started = time.time()
    for n in (2, 3):
        for r in range(1, n * n + 1):
            for seed in range(5):
                assert rank(random_channel(n, r, seed=seed)) == r
    for p in (0.1, 0.5, 1.0):
        assert rank(depolarizing(p)) == 4
    assert rank(depolarizing(0.0)) == 1
    _report(3, "requested rank reproduced for all (N, r, seed)", started, 5.0)


def test_criterion_04_formalism_equivalence():
    started = time.time()
    worst = 0.0
    for seed in range(50):
        p, m = FEASIBLE_COMBOS[seed % len(FEASIBLE_COMBOS)]
        proto = random_protocol(2, p, m, seed=seed)
        ch = random_channel(2, (seed % 4) + 1, seed=seed + 500)
        gap = float(np.linalg.norm(
            control_map(proto, choi(ch)).matrix
            - effective_choi(proto, ch).matrix
        ))
        worst = max(worst, gap)
    assert worst <= 1e-9
    _report(4, f"50 protocols, worst control-map gap {worst:.3e}", started, 60.0)


def test_criterion_05_qt_in_formalism():
    started = time.time()
    worst = 0.0
    for seed in range(20):
        n = 2 if seed % 2 == 0 else 3
        ch = random_channel(n, (seed % (n * n)) + 1, seed=seed + 900)
        worst = max(worst, residual(qt_protocol(n), ch))
    assert worst < 1e-9
    _report(5, f"20 channels, worst QT residual {worst:.3e}", started, 20.0)


def test_criterion_06_entanglement_bound_instantiation():
    started = time.time()
    corpus = [qt_protocol(2), qt_protocol(3), bare_protocol(2),
              bare_protocol(3, mu=np.array([0.8, 0.6]))]
    corpus += [random_protocol(2, p, m, seed=30 + i)
               for i, (p, m) in enumerate(FEASIBLE_COMBOS)]
    faithful = 0
    for proto in corpus:
        n = proto.n
        ch = random_channel(n, n * n, seed=n)  # full rank
        if residual(proto, ch) < 1e-9:
            faithful += 1
            total, ok = entanglement_bound(proto.resource, n)
            assert ok and total >= np.sqrt(n) - 1e-9
            if n == 2 and proto.local_dim == 2:
                np.testing.assert_allclose(
                    proto.resource.mu, np.full(2, 1 / np.sqrt(2)), atol=1e-6
                )
    assert faithful >= 2  # both teleportation protocols qualify
    _report(6, f"{faithful} faithful protocols all satisfy the bound",
            started, 5.0)


def test_criterion_07_no_cc_contradiction():
    started = time.time()
    for n in (2, 3):
        for p in (1, 2, 4):
            proto = random_protocol(n, p, 1, seed=n * 10 + p)
            report = no_cc_contradiction(proto)
            assert abs(report["contradiction_lhs"] - 1.0) < 1e-9
            assert report["contradiction_rhs"] == float(n * p)
            assert report["verdicts"]["faithful_correction_possible"] is False
    _report(7, "LHS=1 vs RHS=N*P, verdict false for all (N, P)", started, 1.0)


def test_criterion_08_cauchy_schwarz_validity():
    started = time.time()
    worst = max(cauchy_schwarz_check(qt_protocol(2)),
                cauchy_schwarz_check(qt_protocol(3)))
    for seed in range(50):
        p, m = FEASIBLE_COMBOS[seed % len(FEASIBLE_COMBOS)]
        worst = max(worst, cauchy_schwarz_check(random_protocol(2, p, m, seed)))
    assert worst <= 1e-9
    _report(8, f"worst violation {worst:.3e}", started, 30.0)


def test_criterion_09_majorization_oracle():
    started = time.time()
    vectors = grid_schmidt_vectors()
    pairs = list(itertools.product(range(len(vectors)), repeat=2))

    # x = D y with D doubly stochastic holds for permuted x and y too (D with
    # its rows and columns permuted), so each class of pairs needs one LP
    @functools.lru_cache(maxsize=None)
    def oracle(x, y):
        return doubly_stochastic_feasible(np.array(x), np.array(y))

    checked = 0
    for i, j in pairs:
        src, tgt = vectors[i], vectors[j]
        expected = oracle(tuple(np.sort(src**2)), tuple(np.sort(tgt**2)))
        got = nielsen_convertible(AncillaResource(src), AncillaResource(tgt))
        assert got == expected, f"disagreement at {src} -> {tgt}"
        checked += 1
    assert checked >= 400
    _report(9, f"{checked} pairs agree with the LP oracle", started, 60.0)


def test_criterion_10_necessity_search_ceilings():
    started = time.time()
    ch = depolarizing(0.5)
    seed = 2024

    # (a) no classical communication: M = 1, P = 2, mu free
    base_a = zero_parameterization(2, 2, "none")
    cfg_a = OptimizationConfig(evaluation_budget=20_000, restarts=20, seed=seed)
    run_a = optimize(ch, base_a, cfg_a)
    rerun_a = optimize(ch, base_a, cfg_a)
    assert run_a.best_fidelity <= 0.999
    assert f"{run_a.best_fidelity:.6f}" == "0.624928"  # README ceiling
    assert run_a.best_fidelity == rerun_a.best_fidelity
    assert run_a.per_restart_bests == rerun_a.per_restart_bests
    assert run_a.best_residual == rerun_a.best_residual

    # (b) sub-maximal entanglement pinned, full measurement (M = 4)
    mu_b = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    base_b = zero_parameterization(2, 2, "full", mu_fixed=mu_b)
    cfg_b = OptimizationConfig(evaluation_budget=20_000, restarts=20, seed=seed)
    run_b = optimize(ch, base_b, cfg_b)
    rerun_b = optimize(ch, base_b, cfg_b)
    assert run_b.best_fidelity <= 0.999
    assert f"{run_b.best_fidelity:.6f}" == "0.793157"  # README ceiling
    assert run_b.best_fidelity == rerun_b.best_fidelity
    assert run_b.per_restart_bests == rerun_b.per_restart_bests

    # (c) warm start at the teleportation protocol stays faithful
    cfg_c = OptimizationConfig(evaluation_budget=2_000, restarts=2, seed=seed,
                               warm_start=True)
    run_c = optimize(ch, qt_parameterization(2), cfg_c)
    assert run_c.best_fidelity >= 1 - 1e-6

    _report(
        10,
        f"ceilings (seed {seed}): no-CC {run_a.best_fidelity:.6f}, "
        f"pinned-mu {run_b.best_fidelity:.6f}, warm-start "
        f"{run_c.best_fidelity:.9f}; reruns bit-identical",
        started,
        600.0,
    )


def test_criterion_11_depolarizing_classical_limit():
    started = time.time()
    p = 2 / 3
    ch = depolarizing(p)
    total = 0.0
    count = 10_000
    for seed in range(count):
        psi = random_pure(2, seed)
        total += float(np.real(psi.conj() @ ch.apply(projector(psi)) @ psi))
    average = total / count
    assert abs(average - 2 / 3) < 0.01
    assert depolarizing_locc_simulable(2 / 3)
    assert depolarizing_locc_simulable(2 / 3 + 1e-9)
    assert not depolarizing_locc_simulable(2 / 3 - 1e-9)
    assert not depolarizing_locc_simulable(0.5)
    assert depolarizing_locc_simulable(1.0)
    _report(11, f"MC average fidelity {average:.4f} vs 2/3; threshold flips "
                "exactly at p = 2/3", started, 30.0)
