import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dense_reference import proof_numbers_reference
from teleportlab.channels import ChoiMatrix, choi, depolarizing, random_channel, rank
from teleportlab.protocol import (
    AncillaResource,
    ResourceProtocol,
    _inner_products,
    _overlap,
    bare_protocol,
    block_operators,
    random_protocol,
    residual,
    target_overlap,
)
from teleportlab.teleport import qt_protocol
from teleportlab.theorem import (
    beta_scalars,
    cauchy_schwarz_check,
    entanglement_bound,
    nielsen_convertible,
    no_cc_contradiction,
    proof_report,
)
from teleportlab.qmath import assert_density_matrix

FEASIBLE_COMBOS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 1), (4, 2), (4, 4)]


def doubly_stochastic_feasible(x: np.ndarray, y: np.ndarray, tol=1e-9) -> bool:
    """Brute-force oracle: is there a doubly stochastic D with x = D y?

    Linear feasibility problem over the d^2 entries of D solved by HiGHS.
    """
    d = x.size
    a_eq = []
    b_eq = []
    for i in range(d):  # row sums
        row = np.zeros(d * d)
        row[i * d:(i + 1) * d] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
    for j in range(d):  # column sums
        col = np.zeros(d * d)
        col[j::d] = 1.0
        a_eq.append(col)
        b_eq.append(1.0)
    for i in range(d):  # x = D y
        row = np.zeros(d * d)
        row[i * d:(i + 1) * d] = y
        a_eq.append(row)
        b_eq.append(x[i])
    result = linprog(
        c=np.zeros(d * d),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=[(0, 1)] * (d * d),
        method="highs",
    )
    if result.status == 0:
        return True
    if result.status == 2:
        return False
    raise RuntimeError(f"linprog failed: {result.message}")


def grid_schmidt_vectors():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    seen = set()
    vectors = []
    for raw in itertools.product(grid, repeat=3):
        v = np.array(raw)
        norm = np.linalg.norm(v)
        if norm == 0:
            continue
        mu = v / norm
        key = tuple(np.round(mu, 12))
        if key not in seen:
            seen.add(key)
            vectors.append(mu)
    return vectors


def _r13(proto):
    return proof_report(proto)["relation13_max_residual"]


def _scaled_receiver_qt2():
    """qt_protocol(2) with its first receiver halved, so W W^dag = I/4."""
    qt = qt_protocol(2)
    receivers = qt.receiver_unitaries.copy()
    receivers[0] *= 0.5
    return ResourceProtocol(n=2, resource=qt.resource,
                            sender_projections=qt.sender_projections,
                            sender_unitaries=qt.sender_unitaries,
                            receiver_unitaries=receivers, validate=False)


def test_relations13_qt():
    assert _r13(qt_protocol(2)) < 1e-10
    assert _r13(qt_protocol(3)) < 1e-10


def test_relations13_bare():
    assert _r13(bare_protocol(2)) < 1e-12


def test_relations13_detects_scaled_receiver():
    assert _r13(_scaled_receiver_qt2()) > 0.1


def test_relations13_matches_determinism_validator():
    # the block route of the reference reads the validator's residual too
    for seed, (p, m) in enumerate(FEASIBLE_COMBOS):
        proto = random_protocol(2, p, m, seed=seed)
        r13 = proof_numbers_reference(proto)[0]
        direct = proto.check_determinism()
        assert r13 == direct < 1e-10


def test_relations13_flags_what_validator_flags():
    broken = _scaled_receiver_qt2()
    with pytest.raises(ValueError, match="deterministic"):
        broken.check_determinism()
    assert _r13(broken) > 1e-10


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), p=st.sampled_from([1, 2, 3]),
       measured=st.booleans(), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([0.0, 4e-10, 5e-10, 6e-10]) | st.floats(-1e-8, 1e-8),
       tol=st.sampled_from([1e-10, 1e-9, 1e-8]))
def test_relation13_is_the_determinism_residual(n, p, measured, seed, eps, tol):
    # senders scaled by 1 + eps move sum L^dag L off I by about 2 eps, on
    # either side of the tolerance: the report's residual and verdict are the
    # gate's, bit for bit
    good = random_protocol(n, p, n * p if measured else 1, seed=seed)
    proto = ResourceProtocol(n, good.resource, good.sender_projections,
                             (1 + eps) * good.sender_unitaries,
                             good.receiver_unitaries, validate=False)
    report = proof_report(proto, tol=tol)
    assert report["relation13_max_residual"] == proto.check_determinism(tol=1.0)
    try:
        proto.check_determinism(tol)
        passes = True
    except ValueError:
        passes = False
    assert report["verdicts"]["deterministic"] is passes


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 4)])
def test_no_cc_contradiction(n, p):
    proto = random_protocol(n, p, 1, seed=n * 100 + p)
    report = no_cc_contradiction(proto)
    assert abs(report["contradiction_lhs"] - 1.0) < 1e-9
    assert report["contradiction_rhs"] == n * p
    assert report["verdicts"]["faithful_correction_possible"] is False


def test_no_cc_contradiction_requires_single_branch():
    with pytest.raises(ValueError, match="M = 1"):
        no_cc_contradiction(qt_protocol(2))


def test_entanglement_bound_examples():
    uniform = AncillaResource(mu=np.full(2, 1 / np.sqrt(2)))
    total, ok = entanglement_bound(uniform, 2)
    assert abs(total - np.sqrt(2)) < 1e-12
    assert ok

    product = AncillaResource(mu=np.array([1.0, 0.0]))
    total, ok = entanglement_bound(product, 2)
    assert abs(total - 1.0) < 1e-12
    assert not ok

    wide = AncillaResource(mu=np.full(4, 0.5))
    total, ok = entanglement_bound(wide, 2)
    assert abs(total - 2.0) < 1e-12
    assert ok


def test_cauchy_schwarz_qt_and_bare():
    assert cauchy_schwarz_check(qt_protocol(2)) <= 1e-9
    assert cauchy_schwarz_check(qt_protocol(3)) <= 1e-9
    assert cauchy_schwarz_check(bare_protocol(2)) <= 1e-12


def test_cauchy_schwarz_random_protocols():
    for seed in range(50):
        p, m = FEASIBLE_COMBOS[seed % len(FEASIBLE_COMBOS)]
        proto = random_protocol(2, p, m, seed=seed)
        assert cauchy_schwarz_check(proto) <= 1e-9


def test_beta_scalars_qt():
    # hand expansion for the stored factorization: the inner-product tensor
    # is delta_{km} * [outcome == (n, l)], so only the two branches whose
    # outcome has matching system/ancilla labels average to a nonzero scalar
    betas = beta_scalars(qt_protocol(2))
    expected = np.array([1 / (2 * np.sqrt(2)), 0.0, 0.0, 1 / (2 * np.sqrt(2))])
    np.testing.assert_allclose(betas, expected, atol=1e-12)


def test_necessity_instantiation():
    # every faithful protocol in the corpus satisfies the resource bound
    for n in (2, 3):
        proto = qt_protocol(n)
        ch = random_channel(n, n * n, seed=n)
        assert residual(proto, ch) < 1e-9
        total, ok = entanglement_bound(proto.resource, n)
        assert ok
        assert total >= np.sqrt(n) - 1e-9


def test_nielsen_examples():
    uniform4 = AncillaResource(mu=np.full(4, 0.5))
    bell_padded = AncillaResource(mu=np.array([1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0]))
    assert nielsen_convertible(uniform4, bell_padded)

    product = AncillaResource(mu=np.array([1.0, 0.0]))
    bell = AncillaResource(mu=np.full(2, 1 / np.sqrt(2)))
    assert not nielsen_convertible(product, bell)
    assert nielsen_convertible(bell, bell)


def test_nielsen_zero_padding():
    short = AncillaResource(mu=np.array([1.0]))
    long = AncillaResource(mu=np.full(3, 1 / np.sqrt(3)))
    assert not nielsen_convertible(short, long)
    assert nielsen_convertible(long, short)


@pytest.mark.parametrize("resource, kind", [
    ([0.6, 0.8], "list"), (np.array([1.0]), "ndarray"), (None, "NoneType")],
    ids=["list", "ndarray", "none"])
def test_theorem_checks_take_only_an_ancilla_resource(resource, kind):
    # each door runs the one resource checker before it reads resource.mu
    # (an AttributeError before), so every argument gets its TypeError
    valid = AncillaResource(mu=[1.0])
    message = f"^resource must be an AncillaResource, got {kind}$"
    for check in (lambda: entanglement_bound(resource, 2),
                  lambda: nielsen_convertible(resource, valid),
                  lambda: nielsen_convertible(valid, resource)):
        with pytest.raises(TypeError, match=message):
            check()


def test_nielsen_partial_order():
    rng = np.random.default_rng(0)
    resources = []
    for _ in range(12):
        mu = np.abs(rng.standard_normal(3))
        resources.append(AncillaResource(mu=mu / np.linalg.norm(mu)))
    for a in resources:
        assert nielsen_convertible(a, a)
    for a, b, c in itertools.permutations(resources[:6], 3):
        if nielsen_convertible(a, b) and nielsen_convertible(b, c):
            assert nielsen_convertible(a, c)


# Schmidt vectors of 1 to 4 coefficients from small integer weights, so that
# ties and zero coefficients (the zero-padding case) come up often
schmidt_vectors = st.lists(st.integers(0, 20), min_size=1, max_size=4).filter(
    any).map(lambda w: AncillaResource(mu=np.sqrt(np.array(w) / sum(w))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(schmidt_vectors, min_size=3, max_size=3))
def test_nielsen_reflexive_and_transitive_property(resources):
    # most entangled first (smallest largest coefficient), so chains are common
    a, b, c = sorted(resources, key=lambda r: r.mu.max())
    for r in resources:
        assert nielsen_convertible(r, r)
    if nielsen_convertible(a, b) and nielsen_convertible(b, c):
        assert nielsen_convertible(a, c)


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([2, 3, 4]), p=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_no_communication_rules_out_faithful_correction_property(n, p, seed):
    report = proof_report(random_protocol(n, p, 1, seed=seed))
    assert report["verdicts"]["faithful_correction_possible"] is False
    assert report["contradiction_rhs"] == n * p
    assert abs(report["contradiction_lhs"] - 1.0) <= 1e-12


def test_nielsen_against_lp_oracle_sample():
    vectors = grid_schmidt_vectors()
    rng = np.random.default_rng(1)
    idx = rng.integers(0, len(vectors), size=(60, 2))
    for i, j in idx:
        src, tgt = vectors[i], vectors[j]
        expected = doubly_stochastic_feasible(src**2, tgt**2)
        got = nielsen_convertible(AncillaResource(src), AncillaResource(tgt))
        assert got == expected, f"disagreement at {src} -> {tgt}"


def test_proof_report_serializes():
    data = proof_report(qt_protocol(2))
    assert data["verdicts"]["deterministic"]
    assert data["verdicts"]["entanglement_bound_satisfied"]
    assert data["verdicts"]["cauchy_schwarz_ok"]
    assert data["contradiction_lhs"] is None
    assert len(data["branch_scalars"]) == 4
    import json

    json.dumps(data)  # must be JSON-serializable


@pytest.mark.parametrize("proto", [
    qt_protocol(2), qt_protocol(3),
    bare_protocol(2, mu=np.full(2, 1 / np.sqrt(2))),
    random_protocol(2, 2, 1, seed=80), random_protocol(3, 2, 4, seed=81),
    random_protocol(3, 3, 9, seed=82),
], ids=["qt2", "qt3", "bare", "n2m1", "n3m4", "n3m9"])
def test_proof_report_equals_separate_checks(proto):
    # the report and the public checks must give the very same numbers
    n, p, mu = proto.n, proto.local_dim, proto.resource.mu
    r13 = proto.check_determinism()
    cs = cauchy_schwarz_check(proto)
    ent_sum, satisfied = entanglement_bound(proto.resource, n)
    verdicts = {"deterministic": bool(r13 <= 1e-9),
                "entanglement_bound_satisfied": bool(satisfied),
                "cauchy_schwarz_ok": bool(cs <= 1e-9)}
    lhs = rhs = None
    if proto.m == 1:
        a, b = block_operators(proto)
        g = np.einsum("i,elinx,ekixm->eklnm", mu, a, b)
        lhs = float(np.mean(np.sum(np.abs(g[0]) ** 2, axis=(0, 1, 2))))
        rhs = float(n * p)
        verdicts["faithful_correction_possible"] = bool(abs(lhs - rhs) <= 1e-9)
    expected = {
        "relation13_max_residual": r13, "entanglement_sum": ent_sum,
        "bound": float(np.sqrt(n)),
        "branch_scalars": [[float(b.real), float(b.imag)]
                           for b in beta_scalars(proto)],
        "cauchy_schwarz_violation": cs, "contradiction_lhs": lhs,
        "contradiction_rhs": rhs, "verdicts": verdicts,
    }
    assert proof_report(proto) == expected


def _uncached_report(proto, tol):
    """proof_report's dict from the reference's block route and freshly
    built G, sharing nothing with what the protocol keeps."""
    n, p = proto.n, proto.local_dim
    r13, cs, betas, lhs = proof_numbers_reference(proto)
    ent_sum, satisfied = entanglement_bound(proto.resource, n)
    verdicts = {"deterministic": bool(r13 <= tol),
                "entanglement_bound_satisfied": bool(satisfied),
                "cauchy_schwarz_ok": bool(cs <= tol)}
    rhs = None
    if lhs is not None:
        rhs = float(n * p)
        verdicts["faithful_correction_possible"] = bool(abs(lhs - rhs) <= tol)
    return {
        "relation13_max_residual": r13, "entanglement_sum": ent_sum,
        "bound": float(np.sqrt(n)),
        "branch_scalars": [[float(x.real), float(x.imag)] for x in betas],
        "cauchy_schwarz_violation": cs, "contradiction_lhs": lhs,
        "contradiction_rhs": rhs, "verdicts": verdicts,
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([2, 3, 4]), p=st.sampled_from([1, 2, 3]),
       branches=st.sampled_from(["1", "P", "NP"]), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([0.0, 5e-10]) | st.floats(-1e-8, 1e-8))
def test_proof_report_equals_the_block_route(n, p, branches, seed, eps):
    # the report reads the operator stacks; the reference reads the ancilla
    # blocks and rebuilds the operators from them: the same bits, on
    # deterministic protocols and off them
    m = {"1": 1, "P": p, "NP": n * p}[branches]
    good = random_protocol(n, p, m, seed=seed)
    proto = ResourceProtocol(n, good.resource, good.sender_projections,
                             (1 + eps) * good.sender_unitaries,
                             good.receiver_unitaries, validate=False)
    assert proof_report(proto) == _uncached_report(proto, 1e-9)


_CACHE_GRID = [(n, p, m) for n in (2, 3, 4) for p in (1, 2, 3) for m in (1, n * p)]


@pytest.mark.parametrize("make", [
    *(lambda n=n, p=p, m=m: random_protocol(n, p, m, seed=100 * n + 10 * p + m)
      for n, p, m in _CACHE_GRID),
    # a copy of the shared qt_protocol(n), so that its caches start empty
    *(lambda n=n: ResourceProtocol(n, *(getattr(qt_protocol(n), name) for name in (
        "resource", "sender_projections", "sender_unitaries", "receiver_unitaries")))
      for n in (2, 3, 4)),
], ids=[f"n{n}p{p}m{m}" for n, p, m in _CACHE_GRID] + ["qt2", "qt3", "qt4"])
def test_kept_proof_numbers_equal_an_uncached_route(make):
    proto = make()
    r = choi(random_channel(proto.n, proto.n**2, seed=proto.m))
    expected = _uncached_report(proto, 1e-9)
    betas = proof_numbers_reference(proto)[2]
    g = _inner_products(proto.resource.mu, proto.branches, proto.receiver_unitaries,
                        proto.n, proto.local_dim)
    for _ in range(2):  # the call that fills the cache, then one that reads it
        assert proof_report(proto) == expected
        np.testing.assert_array_equal(beta_scalars(proto), betas)
        assert cauchy_schwarz_check(proto) == expected["cauchy_schwarz_violation"]
        assert target_overlap(proto, r) == float(_overlap(g, r.matrix))


def test_proof_report_applies_tol_per_call():
    good = random_protocol(2, 2, 2, seed=3)
    proto = ResourceProtocol(2, good.resource, good.sender_projections,
                             1.01 * good.sender_unitaries,
                             good.receiver_unitaries, validate=False)
    r13, cs = proof_report(proto)["relation13_max_residual"], cauchy_schwarz_check(proto)
    # Cauchy-Schwarz holds for any operators (cs <= 0 up to rounding), so
    # no admissible tol fails it; a negative tol is rejected
    assert 1e-9 < r13 < 1.0 and -1.0 < cs <= 1e-9
    numbers = proto._proof_numbers
    with pytest.raises(ValueError, match="tol must be finite and >= 0, got -1.0"):
        proof_report(proto, tol=-1.0)
    for tol, deterministic, cs_ok in ((1.0, True, True), (1e-9, False, True),
                                      (1.0, True, True)):
        report = proof_report(proto, tol=tol)
        assert report == _uncached_report(proto, tol)
        assert report["verdicts"]["deterministic"] is deterministic
        assert report["verdicts"]["cauchy_schwarz_ok"] is cs_ok
        assert proto._proof_numbers is numbers
    with pytest.raises(ValueError, match="read-only"):
        numbers[2].flat[0] = 0.0


def test_proof_report_m1_verdicts():
    report = proof_report(bare_protocol(2, mu=np.full(2, 1 / np.sqrt(2))))
    assert report["contradiction_rhs"] == 4.0
    assert report["verdicts"]["faithful_correction_possible"] is False


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-3])
def test_every_validator_rejects_a_bad_tol(tol):
    # a NaN or infinite tol would turn each check into a no-op
    proto = qt_protocol(2)
    ones = 3 * np.ones((4, 4))
    checks = [
        lambda: assert_density_matrix([[5, 3j], [1, -7]], tol=tol),
        lambda: ChoiMatrix(ones, tol),
        lambda: ChoiMatrix.from_matrix(ones, tol=tol),
        lambda: rank(depolarizing(0.5), tol=tol),
        lambda: proto.check_determinism(tol),
        lambda: proof_report(proto, tol=tol),
        lambda: no_cc_contradiction(bare_protocol(2), tol=tol),
        lambda: nielsen_convertible(AncillaResource(mu=[0.6, 0.8]),
                                    AncillaResource(mu=[1.0, 0.0]), tol=tol),
    ]
    for check in checks:
        with pytest.raises(ValueError, match=re.escape(f"tol must be finite and >= 0, got {tol}")):
            check()
