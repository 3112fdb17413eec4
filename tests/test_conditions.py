import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qldecouple import conditions as cond
from qldecouple import exprlang as ex
from qldecouple import models
from qldecouple.errors import (
    DomainError,
    HintInconsistent,
    IllConditioned,
    MismatchedSignature,
    NotApplicable,
    SchemaError,
    TooLarge,
)
from qldecouple.system import SamplePlan, conjugate_system, load_system

S3 = math.sqrt(3.0)


def plan(count=120, seed=42):
    return SamplePlan(count=count, seed=seed)


@pytest.fixture(scope="module")
def barotropic_cubic():
    return models.build_barotropic("p0*rho^3").system


@pytest.fixture(scope="module")
def barotropic_quadratic():
    return models.build_barotropic("p0*rho^2").system


def full_11():
    return cond.PartitionScheme([[0], [1]], "full")


# --- index sets ----------------------------------------------------------------

def test_tuple_index_sets():
    p = cond.PartitionScheme([[0], [1], [2]], "partial")
    assert set(p.forbidden_pairs()) == {(0, 1), (0, 2), (1, 2)}
    assert set(cond.interaction_tuples(p)) == {(1, 0, 2)}

    pf = cond.PartitionScheme([[0], [1], [2]], "full")
    assert set(pf.forbidden_pairs()) == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}
    assert set(cond.interaction_tuples(pf)) == set()  # all blocks are singletons

    p22 = cond.PartitionScheme([[0, 1], [2, 3]], "partial")
    grads = set(p22.forbidden_pairs())
    assert grads == {(0, 2), (0, 3), (1, 2), (1, 3)}
    inter = set(cond.interaction_tuples(p22))
    assert inter == {(0, 1, 2), (0, 1, 3), (1, 0, 2), (1, 0, 3)}

    p22f = cond.PartitionScheme([[0, 1], [2, 3]], "full")
    assert set(cond.interaction_tuples(p22f)) == {
        (0, 1, 2), (0, 1, 3), (1, 0, 2), (1, 0, 3),
        (2, 3, 0), (2, 3, 1), (3, 2, 0), (3, 2, 1)}


@pytest.mark.parametrize("mode", ["partial", "full"])
def test_allowed_slots_complement_the_forbidden_ones(mode):
    p = cond.PartitionScheme([[2], [0, 3], [1]], mode)
    want = {"partial": [[2], [2, 0, 3], [2, 0, 3, 1]], "full": [[2], [0, 3], [1]]}[mode]
    assert [p.allowed(i) for i in range(p.k)] == want       # block order
    for i, bi in enumerate(p.blocks):
        forbidden = {s for j, bj in enumerate(p.blocks) if p.forbidden(i, j) for s in bj}
        assert sorted(p.allowed(i)) == sorted(set(range(p.n)) - forbidden)
        assert {b for a, b in p.forbidden_pairs() if a in bi} == forbidden


def test_scheme_from_hint_and_mode_override():
    hint = {"blocks": [(0, 1), (2,)], "mode": "full"}
    p = cond.PartitionScheme.from_hint(hint)
    assert (p.blocks, p.mode) == ([[0, 1], [2]], "full")
    assert cond.PartitionScheme.from_hint(hint, "partial").mode == "partial"
    assert cond.PartitionScheme.from_hint({"blocks": [[1], [0]]}).mode == "partial"
    assert cond.PartitionScheme.from_hint({"blocks": [[1], [0]]}, "full").mode == "full"
    with pytest.raises(SchemaError):
        cond.PartitionScheme.from_hint({"blocks": [[0, 1]]})


def test_constraint_count_formula():
    # sizes (2,1) on n=3: 2*2*1 + 1*3*0 = 4
    assert cond.PartitionScheme([[0, 1], [2]], "partial").constraint_count() == 4
    # sizes (1,1) on n=2: 1*1*1 = 1
    assert full_11().constraint_count() == 1


# --- gradient residuals --------------------------------------------------------

def test_gradient_residual_zero_for_cubic_pressure(barotropic_cubic):
    report = cond.check_partition(barotropic_cubic, full_11(), plan(), tol=1e-6)
    assert report.verdict == "pass"
    assert report.families["gradient"].max_abs <= 1e-9
    assert report.frame_provenance == "analyticHint"


def test_gradient_residual_quadratic_hand_value(barotropic_quadratic):
    # grad(lambda_1) . r_2 = rho p''/(2 sqrt(p')) - sqrt(p') = -sqrt(rho/2)
    got = cond.gradient_condition_residual(barotropic_quadratic, 0, 1, 0.0, 0.0,
                                           np.array([1.0, 0.0]))
    # hinted slot order: slot 0 is v + sqrt(p'), slot 1 is v - sqrt(p')
    assert got == pytest.approx(-math.sqrt(0.5), rel=1e-9)


def test_gradient_residual_quadratic_range_on_box(barotropic_quadratic):
    report = cond.check_partition(barotropic_quadratic, full_11(), plan(count=400), tol=1e-6)
    assert report.verdict == "fail"
    mx = report.families["gradient"].max_abs
    assert 0.5 <= mx <= 1.0
    # analytic value sqrt(rho/2) at the argmax sample
    rho_star = report.families["gradient"].argmax["u"][0]
    assert mx == pytest.approx(math.sqrt(rho_star / 2.0), rel=1e-7)


def test_gradient_fd_path_agrees_with_analytic(barotropic_quadratic):
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = np.array([rng.uniform(0.6, 1.9), rng.uniform(-0.9, 0.9)])
        a = cond.gradient_condition_residual(barotropic_quadratic, 0, 1, 0, 0, u)
        f = cond.gradient_condition_residual(barotropic_quadratic, 0, 1, 0, 0, u, path="fd")
        assert abs(a - f) <= 1e-5


def test_gradient_numeric_frame_matches_hinted_zero_set(barotropic_cubic):
    report = cond.check_partition(barotropic_cubic, full_11(), plan(), frame="numeric")
    assert report.verdict == "pass"
    assert report.frame_provenance == "numeric"
    assert report.families["gradient"].max_abs <= 1e-8


def test_constant_coefficient_all_zero():
    doc = {"n": 3, "states": ["a", "b", "c"],
           "A": [["5", "1", "0"], ["0", "2", "1"], ["0", "0", "-1"]],
           "domain": {"a": [-1, 1], "b": [-1, 1], "c": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    p = cond.PartitionScheme([[0], [1], [2]], "partial")
    report = cond.check_partition(sys_, p, plan(count=40))
    assert report.verdict == "pass"
    assert report.max_residual <= 1e-10


# --- threadline ------------------------------------------------------------------

def test_threadline_partial_22_passes():
    sys_ = models.build_threadline(k=1.0).system
    p = cond.PartitionScheme([[0, 1], [2, 3]], "partial")
    report = cond.check_partition(sys_, p, plan(count=150))
    assert report.verdict == "pass"
    assert report.max_residual <= 1e-6
    assert report.frame_provenance == "analyticHint"


def test_threadline_decay_coefficients_vanish():
    # complete exceptionality: grad(lambda_a) . r_a = 0 for every family,
    # including across the split multiplicity-2 eigenvalues
    sys_ = models.build_threadline(k=1.0).system
    machine = cond.FrameMachine(sys_)
    for row in sys_.sample_points(plan(count=60)):
        u = row[2:]
        base = machine.base(row[0], row[1], u)
        for a in range(4):
            val = cond.gradient_condition_residual(sys_, a, a, row[0], row[1], u,
                                                   machine=machine, base=base)
            assert abs(val) <= 1e-6


def test_threadline_numeric_cluster_partition_fails():
    # without hints the only multiplicity-respecting (2,2) grouping keys the
    # clusters themselves, and the speed of one cluster varies across the other
    sys_ = models.build_threadline(k=1.0).system
    p = cond.PartitionScheme([[0, 1], [2, 3]], "partial")
    report = cond.check_partition(sys_, p, plan(count=60), frame="numeric")
    assert report.verdict == "fail"
    assert report.families["gradient"].max_abs >= 0.5


# --- isentropic: the honest behavior ---------------------------------------------

def test_isentropic_gradient_residual_hand_formula():
    # with the true lambda = v eigenvector r3 = (p_s, 0, -p_rho):
    # grad(lambda_1) . r3 = (p_rr p_s - p_rs p_r)/(2 sqrt(p_r))
    #                     = sqrt(3) s (1 - rho^3 s) for p0 = 1, f(s) = s
    sys_ = models.build_isentropic("s").system
    for (rho, v, s) in [(1.0, 0.0, 1.0), (1.5, 0.3, 0.8), (0.7, -0.5, 1.6)]:
        got = cond.gradient_condition_residual(sys_, 0, 2, 0.0, 0.0,
                                               np.array([rho, v, s]))
        want = S3 * s * (1.0 - rho**3 * s)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_isentropic_partial_hierarchy_fails_honestly():
    sys_ = models.build_isentropic("s").system
    p = cond.PartitionScheme([[0], [1], [2]], "partial")
    report = cond.check_partition(sys_, p, plan(count=150))
    assert report.verdict == "fail"
    # residual sqrt(3) s (1 - rho^3 s) reaches O(1) magnitudes on the box
    assert report.families["gradient"].max_abs >= 1e-1


def test_isentropic_full_mode_fails_strongly():
    sys_ = models.build_isentropic("s").system
    p = cond.PartitionScheme([[0], [1], [2]], "full")
    report = cond.check_partition(sys_, p, plan(count=150))
    assert report.verdict == "fail"
    assert report.families["gradient"].max_abs >= 1e-2


def test_isentropic_verdicts_do_not_depend_on_f():
    pa = cond.PartitionScheme([[0], [1], [2]], "partial")
    r1 = cond.check_partition(models.build_isentropic("s").system, pa, plan(count=60))
    r2 = cond.check_partition(models.build_isentropic("s^2").system, pa, plan(count=60))
    assert r1.verdict == r2.verdict == "fail"


# --- sources ---------------------------------------------------------------------

def test_source_family_vacuous_when_homogeneous(barotropic_cubic):
    report = cond.check_partition(barotropic_cubic, full_11(), plan(count=30))
    assert report.families["source"].vacuous
    assert report.families["source"].count == 0


def _barotropic_with_source(g, left0_factor=None):
    doc = json.loads(json.dumps(models.build_barotropic("p0*rho^3").document))
    doc["g"] = g
    if left0_factor:
        av = doc["autovectorHint"]
        av["left"][0] = [f"({c})*({left0_factor})" for c in av["left"][0]]
    return doc


def test_source_directional_derivative_hand_value():
    # barotropic p = rho^3 with g = (0, -v): hinted l1 = rho dH1, psi = -rho v,
    # r2 = (rho, -sqrt(3) rho); r2(psi) = -rho v + sqrt(3) rho^2 and
    # dL(r2, r1) (L r1)^-1 psi = psi, so the residual is sqrt(3) rho^2
    sys_ = load_system(json.dumps(_barotropic_with_source(["0", "-v"])))
    got = cond.source_condition_residual(sys_, full_11(), 0, 1, 0.0, 0.0,
                                         np.array([1.0, 1.0]))
    assert got == pytest.approx(S3, rel=1e-6)


def test_source_residual_covariant_under_right_rescaling():
    entry = models.build_barotropic("p0*rho^3")
    doc = json.loads(json.dumps(entry.document))
    doc["g"] = ["0", "-v"]
    sys_plain = load_system(json.dumps(doc))
    doc2 = json.loads(json.dumps(doc))
    av = doc2["autovectorHint"]
    av["right"][1] = [f"({c})*(1 + rho^2/4)" for c in av["right"][1]]
    sys_scaled = load_system(json.dumps(doc2))
    u = np.array([1.2, 0.7])
    v1 = cond.source_condition_residual(sys_plain, full_11(), 0, 1, 0, 0, u)
    v2 = cond.source_condition_residual(sys_scaled, full_11(), 0, 1, 0, 0, u)
    # rescaling the sweep direction r_b scales the residual, zeros unmoved
    tau = 1.0 + u[0] ** 2 / 4.0
    assert v2 == pytest.approx(v1 * tau, rel=1e-5, abs=1e-8)


def test_source_residual_covariant_under_left_rescaling():
    # replacing l_a by m l_a multiplies the residual by m at the same state
    u = np.array([1.2, 0.7])
    sys_plain = load_system(json.dumps(_barotropic_with_source(["0", "-v"])))
    sys_scaled = load_system(json.dumps(_barotropic_with_source(["0", "-v"], "1 + v^2")))
    v1 = cond.source_condition_residual(sys_plain, full_11(), 0, 1, 0, 0, u)
    v2 = cond.source_condition_residual(sys_scaled, full_11(), 0, 1, 0, 0, u)
    assert abs(v1) > 1.0
    assert v2 == pytest.approx(v1 * (1.0 + u[1] ** 2), rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("frame", ["analytic", "numeric"])
def test_barotropic_riemann_damping_source_fully_decouples(frame):
    # g = -(rho, v) gives dH g = -(H1, H2): each Riemann invariant is damped
    # by itself, under hinted and numeric frames alike
    sys_ = load_system(json.dumps(_barotropic_with_source(["-rho", "-v"])))
    report = cond.check_partition(sys_, full_11(), plan(count=30), frame=frame)
    assert report.verdict == "pass", report.to_json()
    assert not report.families["source"].vacuous
    assert report.families["source"].max_abs <= 1e-8


def test_emitted_source_defect_fails_on_source_family():
    doc = models.emit_synthetic_document(0, 3, [2, 1], with_source=True)
    p = cond.PartitionScheme(doc["partitionHint"]["blocks"], "partial")
    sound = cond.check_partition(load_system(doc), p, plan(count=30), frame="numeric")
    assert sound.verdict == "pass", sound.to_json()
    # a dependence of the first block's source on the last block's variable
    doc["g"][0] = f"({doc['g'][0]}) + 0.05*u3*u2"
    report = cond.check_partition(load_system(doc), p, plan(count=30), frame="numeric")
    assert report.verdict == "fail"
    assert report.families["source"].max_abs >= 1e-2
    for fam in ("gradient", "interaction"):
        assert report.families[fam].to_dict() == sound.families[fam].to_dict()


# --- oracle soundness and completeness -------------------------------------------

def test_oracle_soundness_partial():
    tri, maps, entry = models.build_synthetic_triangular(seed=3, n=3, block_sizes=(2, 1))
    p = cond.PartitionScheme(entry.extras["blocks"], "partial")
    report = cond.check_partition(entry.system, p, plan(count=80))
    assert report.verdict == "pass", report.to_json()
    assert report.max_residual <= 1e-6


def test_oracle_with_source_passes():
    _, _, entry = models.build_synthetic_triangular(seed=11, n=4, block_sizes=(1, 1, 2),
                                                    with_source=True)
    p = cond.PartitionScheme(entry.extras["blocks"], "partial")
    report = cond.check_partition(entry.system, p, plan(count=80))
    assert report.verdict == "pass", report.to_json()
    assert not report.families["source"].vacuous
    assert report.families["source"].max_abs <= 1e-6


def test_oracle_completeness_defect_detected():
    _, _, entry = models.build_synthetic_triangular(seed=5, n=3, block_sizes=(2, 1),
                                                    off_block_defect=0.1)
    p = cond.PartitionScheme(entry.extras["blocks"], "partial")
    report = cond.check_partition(entry.system, p, plan(count=80))
    assert report.verdict == "fail"
    assert report.max_residual >= 1e-2


def test_oracle_completeness_statistical():
    hits = 0
    trials = 100
    for seed in range(trials):
        _, _, entry = models.build_synthetic_triangular(
            seed=1000 + seed, n=3, block_sizes=(2, 1), off_block_defect=0.1)
        p = cond.PartitionScheme(entry.extras["blocks"], "partial")
        report = cond.check_partition(entry.system, p, plan(count=20))
        if report.verdict == "fail" and report.max_residual >= 1e-3:
            hits += 1
    assert hits >= 95


def test_scaling_invariance_of_verdict():
    entry = models.build_barotropic("p0*rho^3")
    doc = json.loads(json.dumps(entry.document))
    av = doc["autovectorHint"]
    av["right"] = [[f"({c})*(1 + rho^2/10)" for c in vec] for vec in av["right"]]
    av["left"] = [[f"({c})/(1 + rho^2/10)" for c in vec] for vec in av["left"]]
    sys_scaled = load_system(json.dumps(doc))
    report = cond.check_partition(sys_scaled, full_11(), plan(count=100))
    assert report.verdict == "pass"
    assert report.families["gradient"].max_abs <= 1e-8


# --- search -----------------------------------------------------------------------

def test_search_finds_full_11_for_cubic(barotropic_cubic):
    found = cond.search_partitions(barotropic_cubic, plan(count=80), mode="full")
    assert found, "expected the (1,1) scheme"
    schemes = [tuple(map(tuple, s.blocks)) for s, _ in found]
    assert ((0,), (1,)) in schemes


def test_search_empty_for_quadratic(barotropic_quadratic):
    found = cond.search_partitions(barotropic_quadratic, plan(count=80), mode="full")
    assert found == []
    found_p = cond.search_partitions(barotropic_quadratic, plan(count=80), mode="partial")
    assert found_p == []


def test_search_threadline_includes_22_with_hints():
    sys_ = models.build_threadline(k=1.0).system
    found = cond.search_partitions(sys_, plan(count=60), mode="partial")
    schemes = [tuple(map(tuple, s.blocks)) for s, _ in found]
    assert ((0, 1), (2, 3)) in schemes


def test_search_numeric_frames_assign_whole_clusters(barotropic_cubic):
    # numeric frames: each cluster is one assignment unit
    found = cond.search_partitions(barotropic_cubic, plan(count=80), mode="full",
                                   frame="numeric")
    assert [(s.blocks, r.frame_provenance) for s, r in found] == [([[0], [1]], "numeric")]
    # a semisimple double eigenvalue a keeps its two slots in one unit, so
    # no scheme splits them
    doc = {"n": 3, "states": ["a", "b", "c"],
           "A": [["a", "0", "0"], ["0", "a", "0"], ["0", "0", "c + 3"]],
           "domain": {"a": [-1, 1], "b": [-1, 1], "c": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    stack = cond._SampleStack(sys_, sys_.sample_points(plan(count=40)),
                              cond.FrameMachine(sys_, "numeric"), "auto", 1e-3)
    assert cond._assignment_units(stack) == [[0, 1], [2]]
    found = cond.search_partitions(sys_, plan(count=40), mode="partial", frame="numeric")
    assert [s.blocks for s, _ in found] == [[[0, 1], [2]], [[2], [0, 1]]]


def test_surjections_in_lexicographic_order():
    assert list(cond._surjections(3, 2)) == [(0, 0, 1), (0, 1, 0), (0, 1, 1),
                                             (1, 0, 0), (1, 0, 1), (1, 1, 0)]
    assert list(cond._surjections(2, 3)) == []


def test_search_too_large():
    n = 9
    doc = {"n": n, "states": [f"u{i}" for i in range(n)],
           "A": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
           "domain": {f"u{i}": [-1, 1] for i in range(n)}}
    sys_ = load_system(json.dumps(doc))
    with pytest.raises(TooLarge):
        cond.search_partitions(sys_, plan(count=10))


# --- Nijenhuis --------------------------------------------------------------------

def test_nijenhuis_constant_matrix_zero():
    doc = {"n": 2, "states": ["a", "b"], "A": [["1", "2"], ["3", "4"]],
           "domain": {"a": [-1, 1], "b": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    assert cond.nijenhuis_residual(sys_, 0, 0, np.array([0.2, 0.3])) == 0.0


def test_nijenhuis_barotropic_hand_formula(barotropic_quadratic, barotropic_cubic):
    # for A = [[v, rho], [q(rho), v]]: max-entry N_212 = q - rho q' = (2p' - rho p'')/rho
    mx, _ = cond.nijenhuis_max(barotropic_cubic, plan(count=100))
    assert mx <= 1e-10
    got = cond.nijenhuis_residual(barotropic_quadratic, 0, 0, np.array([1.4, -0.2]))
    assert got == pytest.approx(2.0, rel=1e-9)  # q - rho q' = 2 for p = rho^2
    mx2, _ = cond.nijenhuis_max(barotropic_quadratic, plan(count=100))
    assert mx2 >= 0.1


def test_nijenhuis_matches_brute_force_fd():
    # independent oracle: assemble the tensor from finite differences of A
    _, _, entry = models.build_synthetic_triangular(seed=6, n=3, block_sizes=(2, 1))
    sys_ = entry.system
    u = np.array([0.2, -0.3, 0.4])
    n = sys_.n
    h = 1e-6
    D = np.empty((n, n, n))
    for m in range(n):
        e = np.zeros(n)
        e[m] = h
        D[m] = (sys_.eval_matrix(0, 0, u + e) - sys_.eval_matrix(0, 0, u - e)) / (2 * h)
    A = sys_.eval_matrix(0, 0, u)
    N = np.zeros((n, n, n))
    for j in range(n):
        for i in range(n):
            for k in range(n):
                for a in range(n):
                    N[j, i, k] += (A[a, i] * D[a, j, k] - A[a, k] * D[a, j, i]
                                   + A[j, a] * D[k, a, i] - A[j, a] * D[i, a, k])
    brute = float(np.max(np.abs(N)))
    got = cond.nijenhuis_residual(sys_, 0, 0, u)
    assert got == pytest.approx(brute, rel=1e-5, abs=1e-6)


def test_nijenhuis_not_applicable():
    doc = {"n": 2, "states": ["a", "b"], "A": [["1", "0"], ["0", "2"]],
           "g": ["a", "0"], "domain": {"a": [-1, 1], "b": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    with pytest.raises(NotApplicable):
        cond.nijenhuis_residual(sys_, 0, 0, np.array([0.0, 0.0]))
    doc2 = {"n": 2, "states": ["a", "b"], "A": [["x", "0"], ["0", "2"]],
            "domain": {"a": [-1, 1], "b": [-1, 1]}}
    sys2 = load_system(json.dumps(doc2))
    with pytest.raises(NotApplicable):
        cond.nijenhuis_residual(sys2, 0, 0, np.array([0.0, 0.0]))


def test_nijenhuis_not_applicable_to_nonautonomous_conjugate():
    tri = load_system(json.dumps({"n": 2, "states": ["U1", "U2"],
                                  "A": [["U1 + x", "0"], ["0", "U2"]],
                                  "domain": {"U1": [-3, 3], "U2": [-3, 3]}}))
    h = [ex.parse("U1 + U2", {"U1", "U2"}), ex.parse("U2", {"U1", "U2"})]
    H = [ex.parse("a - b", {"a", "b"}), ex.parse("b", {"a", "b"})]
    conj = conjugate_system(tri, h, H, ["a", "b"], {"a": (-1, 1), "b": (-1, 1)})
    assert not tri.autonomous
    assert not conj.autonomous
    with pytest.raises(NotApplicable):
        cond.nijenhuis_residual(conj, 0, 0.5, (0.1, 0.2))


def test_nijenhuis_consistency_with_search():
    # n = 2 strictly hyperbolic: a full (1,1) scheme exists iff N vanishes
    for gamma, decouples in ((2.0, False), (2.5, False), (3.0, True)):
        sys_ = models.build_barotropic(f"p0*rho^{gamma}").system
        mx, _ = cond.nijenhuis_max(sys_, plan(count=60))
        found = cond.search_partitions(sys_, plan(count=60), mode="full")
        if decouples:
            assert mx <= 1e-6 and found
        else:
            assert mx > 1e-6 and not found


def test_nijenhuis_residual_on_a_stack_matches_each_state():
    # sqrt(a) is not finite for a < 0: one state there raises DomainError,
    # its row of a stack is NaN, and nijenhuis_max does not count it
    doc = {"n": 3, "states": ["a", "b", "c"],
           "A": [["sqrt(a) + b", "a*b", "0"], ["b^2", "2 + a*c", "c"], ["a", "b*c", "3 + a^2"]],
           "domain": {"a": [-0.5, 1], "b": [-1, 1], "c": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    samples = sys_.sample_points(plan(count=60))
    got = cond.nijenhuis_residual(sys_, samples[:, 0], samples[:, 1], samples[:, 2:])
    for value, (t, x, *u) in zip(got, samples):
        try:
            want = cond.nijenhuis_residual(sys_, t, x, np.array(u))
        except DomainError:
            assert np.isnan(value)
            continue
        assert type(want) is float and value.tobytes() == np.float64(want).tobytes()
    finite = ~np.isnan(got)
    assert 10 < finite.sum() < 60
    assert cond.nijenhuis_max(sys_, plan(count=60)) == (got[finite].max(), finite.sum())


def test_check_reduces_ties_and_exclusions_from_the_residual_matrix():
    # complex pair above the real family 3 + u1: the gradient residual of
    # that family along the pair's Re vector (1, 0, 0) is exactly 1 at every
    # sample and the other gradient tuples are exactly 0, so the max ties at
    # every evaluated sample and argmax is the first admissible one
    doc = {"n": 3, "states": ["u1", "u2", "u3"],
           "A": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "3 + u1"]],
           "domain": {"u1": [-1, 1], "u2": [-1, 1], "u3": [-1, 1]}, "exclude": ["u2 - 0.5"]}
    sys_ = load_system(json.dumps(doc))
    samples = sys_.sample_points(plan(count=40))
    excluded = [sys_.is_excluded(t, x, np.array(u)) for t, x, *u in samples]
    first, evaluated = excluded.index(False), excluded.count(False)
    assert first > 0 and 0 < sum(excluded) < 20
    report = cond.check_partition(sys_, cond.PartitionScheme([[0, 1], [2]], "full"),
                                  plan(count=40))
    assert (report.total_samples, report.evaluated, report.excluded, report.degenerate) == (
        40, evaluated, 40 - evaluated, 0)
    grad = report.families["gradient"].to_dict()
    assert (grad["count"], grad["maxAbs"], grad["meanAbs"]) == (4 * evaluated, 1.0, 0.25)
    t, x, *u = samples[first].tolist()
    assert grad["argmax"] == {"sampleIndex": first, "t": t, "x": x, "u": u,
                              "tuple": "2,1->1,1", "residual": 1.0}
    zero = {"maxAbs": 0.0, "meanAbs": 0.0, "count": evaluated}
    assert grad["perTuple"] == {"1,1->2,1": zero, "1,2->2,1": zero, "2,1->1,2": zero,
                                "2,1->1,1": {"maxAbs": 1.0, "meanAbs": 1.0, "count": evaluated}}
    assert report.families["source"].to_dict() == {
        "maxAbs": None, "meanAbs": None, "count": 0, "argmax": None, "perTuple": {},
        "vacuous": True}


# --- report plumbing --------------------------------------------------------------

def test_report_json_and_csv(tmp_path, barotropic_quadratic):
    csvfile = tmp_path / "resid.csv"
    report = cond.check_partition(barotropic_quadratic, full_11(), plan(count=20),
                                  csv_path=str(csvfile))
    d = report.to_dict()
    assert d["verdict"] == "fail"
    assert d["samples"]["total"] == 20
    assert "gradient" in d["families"]
    lines = csvfile.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["sampleIndex", "t", "x", "rho", "v", "family", "ia", "lb", "jg",
                      "residual"]
    assert len(lines) > 1


def test_exclusion_policy_fails_when_mostly_excluded():
    entry = models.build_barotropic("p0*rho^3")
    doc = json.loads(json.dumps(entry.document))
    doc["exclude"] = ["2 - rho"]  # excludes rho < 2: nearly the whole box
    sys_ = load_system(json.dumps(doc))
    report = cond.check_partition(sys_, full_11(), plan(count=50))
    assert report.verdict == "fail"
    assert report.excluded >= 0.8 * 50


def test_nonhyperbolic_pressure_all_excluded():
    entry = models.build_barotropic("-p0*rho^2", parameters={"p0": 1.0})
    report = cond.check_partition(entry.system, full_11(), plan(count=30),
                                  frame="numeric")
    assert report.verdict == "fail"
    assert "allExcluded" in report.flags


def test_interaction_residual_hand_oracle():
    # A = [[1, u3, 0], [0, 2, 0], [0, 0, 4]]: r-fields e1, (u3, 1, 0), e3
    # and dual lefts l1 = (1, -u3, 0).  The only partial-mode interaction
    # tuple for blocks ({1,2},{3}) is l1 . ((Dr2) r3 - (Dr3) r2) = 1 exactly.
    doc = {"n": 3, "states": ["u1", "u2", "u3"],
           "A": [["1", "u3", "0"], ["0", "2", "0"], ["0", "0", "4"]],
           "domain": {"u1": [-1, 1], "u2": [-1, 1], "u3": [0.2, 0.8]}}
    sys_ = load_system(json.dumps(doc))
    # the formula in dA is exact; the fd path carries the FD truncation
    for path, tol in (("auto", 1e-12), ("fd", 1e-6)):
        got = cond.interaction_condition_residual(sys_, 0, 1, 2, 0.0, 0.0,
                                                  np.array([0.1, -0.2, 0.5]), path=path)
        assert got == pytest.approx(1.0, abs=tol)
        # swapped roles flip the sign
        got2 = cond.interaction_condition_residual(sys_, 0, 2, 1, 0.0, 0.0,
                                                   np.array([0.1, -0.2, 0.5]), path=path)
        assert got2 == pytest.approx(-1.0, abs=tol)
    # and the full check flags the coupling
    p = cond.PartitionScheme([[0, 1], [2]], "partial")
    report = cond.check_partition(sys_, p, plan(count=40))
    assert report.verdict == "fail"
    assert report.families["interaction"].max_abs == pytest.approx(1.0, abs=1e-5)


def test_complex_pair_block_partial_passes():
    # rotation block (complex pair, constant) above a real family that may
    # depend on the leading variables: the hierarchy holds
    doc = {"n": 3, "states": ["u1", "u2", "u3"],
           "A": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "3 + u1"]],
           "domain": {"u1": [-1, 1], "u2": [-1, 1], "u3": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    p = cond.PartitionScheme([[0, 1], [2]], "partial")
    report = cond.check_partition(sys_, p, plan(count=40))
    assert report.frame_provenance == "numeric"
    assert report.verdict == "pass", report.to_json()
    assert report.max_residual <= 1e-8


def test_complex_pair_block_full_fails_on_dependence():
    # same matrix in full mode: the real family's speed 3 + u1 varies across
    # the rotation block's waves, so non-interacting decoupling must fail
    doc = {"n": 3, "states": ["u1", "u2", "u3"],
           "A": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "3 + u1"]],
           "domain": {"u1": [-1, 1], "u2": [-1, 1], "u3": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    p = cond.PartitionScheme([[0, 1], [2]], "full")
    report = cond.check_partition(sys_, p, plan(count=40))
    assert report.verdict == "fail"
    # grad(3 + u1) . r for the pair's Re vector (1, 0, 0) is exactly 1
    assert report.families["gradient"].max_abs == pytest.approx(1.0, abs=1e-6)


def test_jordan_block_flagged_for_review():
    # a 2x2 Jordan block at every state: the numeric frame carries a
    # generalized autovector, and the report flags it
    doc = {"n": 3, "states": ["u1", "u2", "u3"],
           "A": [["u1", "1", "0"], ["0", "u1", "0"], ["0", "0", "3"]],
           "domain": {"u1": [-1, 1], "u2": [-1, 1], "u3": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    report = cond.check_partition(sys_, cond.PartitionScheme([[0, 1], [2]], "partial"),
                                  plan(count=40))
    assert report.flags == ["jordanBlocks"]
    assert report.evaluated == 40


def test_singular_block_source_counted_row_by_row():
    # the hinted left row of slot 0 is (|p| + p, 0), zero for p < 0: there
    # L R of block 1 is singular, the batched solve fails, and the rows are
    # solved one at a time, so only the p < 0 samples drop, as singularLR
    doc = {"n": 2, "states": ["p", "q"], "A": [["p", "0"], ["0", "q + 3"]],
           "g": ["p", "p"], "domain": {"p": [-1, 1], "q": [-1, 1]},
           "autovectorHint": {"eigenvalues": ["p", "q + 3"],
                              "right": [["1", "0"], ["0", "1"]],
                              "left": [["abs(p) + p", "0"], ["0", "1"]]}}
    sys_ = load_system(json.dumps(doc))
    samples = sys_.sample_points(plan(count=40))
    report = cond.check_partition(sys_, cond.PartitionScheme([[0], [1]], "partial"),
                                  plan(count=40))
    negative = int(np.count_nonzero(samples[:, 2] < 0))
    assert 0 < negative < 40
    assert report.degenerate_by_cause == {"singularLR": negative}
    assert report.evaluated == 40 - negative
    assert report.families["source"].count == 40 - negative
    assert report.families["source"].max_abs <= 1e-8


def test_frame_machines_share_one_hinted_field_per_system():
    # the field compiles every hint; a search builds machines per candidate
    sys_ = models.build("threadline").system
    a, b = cond.FrameMachine(sys_), cond.FrameMachine(sys_)
    assert a.field is not None and a.field is b.field
    assert cond.FrameMachine(models.build("threadline").system).field is not a.field


# --- the stacked residual kernel ------------------------------------------------

def _stack_and_pointwise(sys_, p, samples, frame="auto", gradient_path="auto"):
    """Statuses and residual rows of the kernel on the whole sample stack,
    and, per sample, the N = 1 call of every tuple: its value, or the type
    of what it raised."""
    stack = cond._SampleStack(sys_, samples, cond.FrameMachine(sys_, frame), gradient_path,
                              1e-3)
    status, values, (grad, ints, src) = stack.evaluate(p)
    calls = [lambda t, x, u, a=a, b=b: cond.gradient_condition_residual(
                 sys_, a, b, t, x, u, frame=frame, path=gradient_path)
             for a, b in grad]
    calls += [lambda t, x, u, a=a, b=b, c=c: cond.interaction_condition_residual(
                  sys_, a, b, c, t, x, u, frame=frame, path=gradient_path) for a, b, c in ints]
    calls += [lambda t, x, u, a=a, b=b: cond.source_condition_residual(
                  sys_, p, a, b, t, x, u, frame=frame, path=gradient_path) for a, b in src]
    pointwise = []
    for t, x, *u in samples:
        try:
            pointwise.append([call(t, x, np.array(u)) for call in calls])
        except (IllConditioned, HintInconsistent, DomainError, MismatchedSignature,
                np.linalg.LinAlgError) as err:
            pointwise.append(err)
    return status, values, pointwise


def _assert_rows_match(status, values, pointwise):
    rows = iter(values.tolist())
    for st_, want in zip(status, pointwise):
        if st_ == "ok":
            assert next(rows) == want     # bit for bit
        elif st_ != "excluded":
            assert st_ == cond._cause(want)


SHAPES = {3: [[2, 1], [1, 2], [1, 1, 1]], 4: [[2, 2], [1, 1, 2], [3, 1]]}


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 40), n=st.sampled_from([3, 4]), shape=st.integers(0, 2),
       sourced=st.booleans(), mode=st.sampled_from(["partial", "full"]),
       defect=st.sampled_from([0.0, 0.2]))
def test_kernel_rows_equal_one_state_calls(seed, n, shape, sourced, mode, defect):
    sizes = SHAPES[n][shape]
    _, _, entry = models.build_synthetic_triangular(seed=seed, n=n, block_sizes=sizes,
                                                    with_source=sourced,
                                                    off_block_defect=defect)
    p = cond.PartitionScheme(entry.extras["blocks"], mode)
    samples = entry.system.sample_points(plan(count=6, seed=seed))
    status, values, pointwise = _stack_and_pointwise(entry.system, p, samples)
    assert (status == "ok").sum() == len(values)
    _assert_rows_match(status, values, pointwise)


def test_kernel_rows_with_non_finite_coefficients_keep_their_one_state_errors():
    # A is lower triangular with eigenvalues 1 + a^2 + sqrt(a + 1), 3 and
    # 5 + sqrt(c^2): not finite for a < -1; dA/dc divides by sqrt(c^2), so it
    # is not finite at c = 0 along r_2 = e_3; g = sqrt(b) is not finite for
    # b < 0, and for b = 1e-7 only at u - h r_b, which the fd path reads and
    # the exact source formula does not.  The fd path reads no dA, so there
    # the c = 0 row with b > 0 is evaluated and the one with b < 0 keeps the
    # error of g.  Every such row keeps the DomainError, type and message,
    # that the coefficient raises at its one state, and every other row
    # keeps its bits
    doc = {"n": 3, "states": ["a", "b", "c"],
           "A": [["1 + a^2 + sqrt(a + 1)", "0", "0"], ["b", "3", "0"],
                 ["0", "c", "5 + sqrt(c^2)"]],
           "g": ["sqrt(b)", "a", "c"],
           "domain": {"a": [-2, 1], "b": [-1, 1], "c": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    u = np.array([[0.3, 0.5, 0.4], [-1.5, 0.5, 0.4], [0.3, -0.5, 0.4], [0.3, 1e-7, 0.4],
                  [0.3, 0.5, 0.0], [0.3, -0.5, 0.0], [0.6, 0.2, -0.7]])
    samples = np.column_stack([np.full(len(u), 0.2), np.full(len(u), 0.1), u])

    def raised(method, *args):
        with pytest.raises(DomainError) as info:
            getattr(sys_, method)(0.2, 0.1, *args)
        return info.value

    along_c = np.array([0.0, 0.0, 1.0])
    wants = {"auto": [None, raised("eval_matrix", u[1]), raised("eval_source", u[2]), None,
                      raised("directional_matrix_derivative", u[4], along_c),
                      raised("directional_matrix_derivative", u[5], along_c), None],
             "fd": [None, raised("eval_matrix", u[1]), raised("eval_source", u[2]),
                    raised("eval_source", u[3] - [0.0, 1e-5, 0.0]), None,
                    raised("eval_source", u[5]), None]}
    for path, mode in product(wants, ("partial", "full")):
        want, p = wants[path], cond.PartitionScheme([[0], [1], [2]], mode)
        status, values, pointwise = _stack_and_pointwise(sys_, p, samples, gradient_path=path)
        assert list(status) == ["ok" if w is None else "DomainError" for w in want]
        _assert_rows_match(status, values, pointwise)
        stack = cond._SampleStack(sys_, samples, cond.FrameMachine(sys_), path, 1e-3)
        _, kernel = stack.kernel.run(np.arange(len(stack.rows)), p,
                                     *stack.evaluate(p)[2])
        errors = list(stack.base.errors)
        for k, err in zip(stack.rows, kernel):
            errors[k] = err
        for err, one, w in zip(errors, pointwise, want):
            if w is not None:
                assert (type(err), str(err)) == (type(one), str(one)) == (type(w), str(w))


def test_kernel_fallback_rows_match_one_state_calls():
    # [[0, 1], [a, 0]] has real simple eigenvalues for a > 0, a Jordan block
    # at a = 0 and a complex pair for a < 0: the middle two rows have a
    # multiple cluster, which their per-row signature and kinds record
    doc = {"n": 3, "states": ["a", "b", "c"],
           "A": [["0", "1", "0"], ["a", "0", "0"], ["b", "c", "3 + b"]],
           "g": ["b", "a*c", "c"],
           "domain": {"a": [-1, 1], "b": [-1, 1], "c": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    samples = np.array([[0.1, 0.2, 0.5, 0.3, -0.2], [0.1, 0.2, 0.0, 0.3, -0.2],
                        [0.1, 0.2, -0.4, 0.1, 0.6], [0.4, 0.7, 0.9, -0.5, 0.1]])
    machine = cond.FrameMachine(sys_, "numeric")
    base = machine.frames(samples[:, 0], samples[:, 1], samples[:, 2:])
    assert (base.mult > 1).any(axis=1).tolist() == [False, True, True, False]
    assert base.cplx.any(axis=1).tolist() == [False, False, True, False]
    assert any(k.startswith("generalized") for k in base.kinds[1])
    for k, (t, x, *u) in enumerate(samples):
        f = machine.base(t, x, np.array(u))
        assert np.array_equal(base.rights[k], f.rights[0])
        assert np.array_equal(base.lefts[k], f.lefts[0])
        assert np.array_equal(base.values[k], f.values[0])
    for mode in ("partial", "full"):
        for path in ("auto", "fd"):
            p = cond.PartitionScheme([[0, 1], [2]], mode)
            status, values, pointwise = _stack_and_pointwise(sys_, p, samples,
                                                             gradient_path=path)
            assert list(status) == ["ok", "MismatchedSignature", "ok", "ok"]
            _assert_rows_match(status, values, pointwise)
    # in 1+1+1 blocks the a = 0 row's cluster straddles two blocks, so its
    # equal eigenvalues exclude it, as one state at a time
    status, _, _ = _stack_and_pointwise(sys_, cond.PartitionScheme([[0], [1], [2]]),
                                        samples)
    assert list(status[:2]) == ["ok", "excluded"]


def test_row_reads_only_its_own_sweeps():
    # A = diag(a, sqrt(b)) with b below the FD step: the sweep along the
    # sqrt(b) eigenvector leaves the domain.  The perturbation formula reads
    # no sweep, so every row is evaluated; the fd path reads it and drops
    # exactly the rows whose b - h < 0, each counted as a DomainError.
    doc = {"n": 2, "states": ["a", "b"], "A": [["a", "0"], ["0", "sqrt(b)"]],
           "domain": {"a": [2, 3], "b": [0, 1e-4]}}
    sys_ = load_system(json.dumps(doc))
    p = cond.PartitionScheme([[1], [0]], "partial")
    auto = cond.check_partition(sys_, p, plan(count=40), frame="numeric")
    assert auto.evaluated == 40 and auto.degenerate_by_cause == {}
    fd = cond.check_partition(sys_, p, plan(count=40), frame="numeric", gradient_path="fd")
    U = sys_.sample_points(plan(count=40))[:, 2:]
    leaves = sum(u[1] - cond._fd_step(u) < 0 for u in U)
    assert 0 < leaves < 40
    assert fd.degenerate == leaves and fd.degenerate_by_cause == {"DomainError": leaves}


def test_sourced_row_whose_sweep_leaves_the_domain():
    # A = diag(a, sqrt(b) + 2) with g = (b, a): the sweep along r_1 = e_2
    # reads sqrt(b - h), which is not finite for b < h.  The exact source
    # formula reads dA and dg at u alone, so auto evaluates every row; the
    # fd path drops exactly the rows whose b - h < 0, as DomainError
    doc = {"n": 2, "states": ["a", "b"], "A": [["a", "0"], ["0", "sqrt(b) + 2"]],
           "g": ["b", "a"], "domain": {"a": [-1, 0], "b": [0, 1e-4]}}
    sys_ = load_system(json.dumps(doc))
    p = cond.PartitionScheme([[0], [1]], "partial")
    auto = cond.check_partition(sys_, p, plan(count=40), frame="numeric",
                                families=("source",))
    assert auto.evaluated == 40 and auto.degenerate_by_cause == {}
    # the slot-0 source b along r_1 = e_2 has derivative 1
    assert auto.families["source"].max_abs == pytest.approx(1.0, abs=1e-12)
    fd = cond.check_partition(sys_, p, plan(count=40), frame="numeric", gradient_path="fd",
                              families=("source",))
    U = sys_.sample_points(plan(count=40))[:, 2:]
    leaves = sum(u[1] - cond._fd_step(u) < 0 for u in U)
    assert 0 < leaves < 40
    assert fd.degenerate_by_cause == {"DomainError": leaves}


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 40), n=st.sampled_from([3, 4]), shape=st.integers(0, 2),
       sourced=st.booleans(), mode=st.sampled_from(["partial", "full"]),
       defect=st.sampled_from([0.0, 0.2]))
def test_exact_frame_derivatives_match_the_fd_path_on_oracles(seed, n, shape, sourced,
                                                                mode, defect):
    # the interaction and source formulas against central differences of
    # aligned frames (truncation O(h^2), h = 1e-5 (1 + |u|)): the same
    # statuses, and every interaction and source column within 1e-8
    # relative to 1 + |fd|, on sound and defect oracles
    _, _, entry = models.build_synthetic_triangular(seed=seed, n=n, block_sizes=SHAPES[n][shape],
                                                    with_source=sourced,
                                                    off_block_defect=defect)
    p = cond.PartitionScheme(entry.extras["blocks"], mode)
    samples = entry.system.sample_points(plan(count=8, seed=seed))
    machine = cond.FrameMachine(entry.system, "numeric")
    (status, auto, (grad, _, _)), (fd_status, fd, _) = (
        cond._SampleStack(entry.system, samples, machine, path, 1e-3).evaluate(p)
        for path in ("auto", "fd"))
    assert list(status) == list(fd_status)
    cols = slice(len(grad), None)
    assert np.all(np.abs(auto[:, cols] - fd[:, cols]) <= 1e-8 * (1.0 + np.abs(fd[:, cols])))


# --- search candidates as reductions of shared sample stacks ---------------------

# a hinted diagonal model whose sweeps fail at some rows: along r_0 where
# p - h < 0 (A = sqrt(p)^2 is not finite: DomainError) and along r_1 where
# q - h < 0 (the hinted eigenvalue is not finite: HintInconsistent)
SWEEP_FAILS = {"n": 3, "states": ["p", "q", "w"],
               "A": [["sqrt(p)^2", "0", "0"], ["0", "q + 3", "0"], ["0", "0", "w + 6"]],
               "domain": {"p": [0, 3e-5], "q": [0, 3e-5], "w": [-1, 1]},
               "autovectorHint": {"eigenvalues": ["p", "sqrt(q)^2 + 3", "w + 6"],
                                  "right": [["1", "0", "0"], ["0", "1", "0"],
                                            ["0", "0", "1"]]}}


def _search_case(name):
    """(system, plan, search keywords) of one equivalence case."""
    if name == "sweepFails":
        return load_system(json.dumps(SWEEP_FAILS)), plan(count=40, seed=3), {}
    if name == "oracleSource":
        _, _, entry = models.build_synthetic_triangular(seed=4, n=3, block_sizes=(2, 1),
                                                        with_source=True)
        return entry.system, plan(count=30), {}
    model, mode, frame, strategy = name.split("-")
    sys_ = {"cubic": lambda: models.build_barotropic("p0*rho^3").system,
            "quadratic": lambda: models.build_barotropic("p0*rho^2").system,
            "isentropic": lambda: models.build("isentropic").system,
            "threadline": lambda: models.build("threadline").system}[model]()
    return (sys_, SamplePlan(count=40, seed=7, strategy=strategy),
            {"mode": mode, "frame": frame})


@pytest.mark.parametrize("name", [
    "threadline-partial-auto-lowDiscrepancy", "threadline-partial-numeric-lowDiscrepancy",
    "cubic-partial-auto-lowDiscrepancy", "cubic-full-auto-lowDiscrepancy",
    "quadratic-partial-auto-lowDiscrepancy", "quadratic-full-auto-lowDiscrepancy",
    "isentropic-partial-auto-lowDiscrepancy", "cubic-full-numeric-tensorGrid",
    "threadline-partial-auto-tensorGrid", "oracleSource", "sweepFails"])
def test_search_candidates_equal_standalone_checks(monkeypatch, name):
    # every pilot and full check the search makes, each a reduction of one
    # of its two shared stacks, gives the report of a fresh check_partition
    sys_, plan_, kw = _search_case(name)
    seen, check = [], cond._SampleStack.check

    def spy(stack, partition, tol, families=cond.FAMILIES, csv_path=None):
        seen.append((partition, families, check(stack, partition, tol, families, csv_path)))
        return seen[-1][2]

    monkeypatch.setattr(cond._SampleStack, "check", spy)
    work = {}
    found = cond.search_partitions(sys_, plan_, work=work, **kw)
    monkeypatch.undo()
    pilot_plan = SamplePlan(count=cond.PILOT_COUNT, seed=plan_.seed, strategy=plan_.strategy)
    pilots = [r for _, f, r in seen if f == ("gradient",)]
    fulls = [r for _, f, r in seen if f == cond.FAMILIES]
    assert len(pilots) == work["candidates"] == len(work["perCandidate"])
    assert len(fulls) == work["fullChecks"] == work["pilotsPassed"]
    assert all(any(r is f for f in fulls) for _, r in found)
    # and the full check of every candidate, the pruned ones too, reduced in
    # turn from one stack of the full plan
    frame = kw.get("frame", "auto")
    stack = cond._SampleStack(sys_, sys_.sample_points(plan_), cond.FrameMachine(sys_, frame),
                              "auto", plan_.separation_tolerance)
    seen += [(scheme, cond.FAMILIES, stack.check(scheme, cond.DEFAULT_TOL))
             for scheme in (cond.PartitionScheme(c["blocks"], kw.get("mode", "partial"))
                            for c in work["perCandidate"])]
    for scheme, families, report in seen:
        want = cond.check_partition(sys_, scheme, pilot_plan if families != cond.FAMILIES
                                    else plan_, frame=frame, families=families)
        assert report.to_dict() == want.to_dict()
        assert report.degenerate_by_cause == want.degenerate_by_cause
    if name == "sweepFails":
        # a row failing both sweeps counts as the slot-0 DomainError wherever
        # it reads both, and as HintInconsistent where it reads r_1 alone
        causes = {tuple(map(tuple, c["blocks"])): c["full"]["degenerateByCause"]
                  for c in work["perCandidate"]}
        assert causes[(0, 1), (2,)] == {"DomainError": 19, "HintInconsistent": 11}
        assert causes[(1,), (0,), (2,)] == {"HintInconsistent": 19}
        assert causes[(2,), (0, 1)] == {}


def _stacked_sweep_rows(sys_, frame, samples, lefts):
    """Each sweep of a kernel over all the stack's rows, and the same sweep
    of a kernel over each row alone: ((values, rights, lefts) at +h and -h,
    errors) per slot; the lefts are None without `lefts`."""
    stack = cond._SampleStack(sys_, samples, cond.FrameMachine(sys_, frame), "auto", 1e-3)
    assert stack.kernel.lefts is not sys_.homogeneous
    kernel = cond._Residuals(stack.machine, stack.kernel.t, stack.kernel.x, stack.kernel.U,
                             stack.kernel.base, "auto", lefts)
    rows = np.arange(len(kernel.U))
    alone = [cond._Residuals(kernel.machine, kernel.t[[k]], kernel.x[[k]], kernel.U[[k]],
                             kernel.base.take([k]), "auto", lefts) for k in rows]
    for slot in range(sys_.n):
        # the stack computes a prefix first and the rest later, as a search does
        kernel.sweep(slot, rows[:len(rows) // 2])
        whole, errors = kernel.sweep(slot, rows)
        for k in rows:
            one, one_errors = alone[k].sweep(slot, np.arange(1))
            yield whole, errors, k, one, one_errors


@pytest.mark.parametrize("case", ["numericFallback", "hinted"])
def test_stacked_sweeps_give_each_row_its_bits_alone(case):
    if case == "hinted":
        sys_ = load_system(json.dumps(SWEEP_FAILS))
        samples, frame = sys_.sample_points(plan(count=20, seed=3)), "analytic"
    else:
        # simple rows, a Jordan row and a complex row in one stack, and
        # rows whose sweeps leave the domain of sqrt(c)
        doc = {"n": 3, "states": ["a", "b", "c"],
               "A": [["0", "1", "0"], ["a", "0", "0"], ["b", "sqrt(c)", "3 + b"]],
               "domain": {"a": [-1, 1], "b": [-1, 1], "c": [0, 3e-5]}}
        sys_ = load_system(json.dumps(doc))
        samples = np.vstack([sys_.sample_points(plan(count=12, seed=5)),
                             [[0.1, 0.2, 0.0, 0.3, 2e-5], [0.1, 0.2, -0.4, 0.1, 1e-5]]])
        frame = "numeric"
    for lefts in (True, False):
        failed = 0
        for whole, errors, k, one, one_errors in _stacked_sweep_rows(sys_, frame, samples,
                                                                     lefts):
            for side, one_side in zip(whole, one):
                assert (side[2] is None) is (one_side[2] is None) is not lefts
                for part, one_part in zip(side[:2 + lefts], one_side):
                    assert np.array_equal(part[k], one_part[0], equal_nan=True)
            assert type(errors[k]) is type(one_errors[0])
            failed += errors[k] is not None
        assert failed
