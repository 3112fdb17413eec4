import json
import math
from collections import Counter

import numpy as np
import pytest

from qldecouple import conditions as cond
from qldecouple import eigen, models, transform
from qldecouple import exprlang as ex
from qldecouple.errors import DomainError, HintInconsistent, ShootingFailed, SingularCandidate
from qldecouple.system import SamplePlan, load_system

S3 = math.sqrt(3.0)


def plan(count=100, seed=42):
    return SamplePlan(count=count, seed=seed)


@pytest.fixture(scope="module")
def barotropic():
    return models.build_barotropic("p0*rho^3").system


def test_verify_riemann_transform_diagonalizes(barotropic):
    candidate = transform.TransformCandidate.from_hints(barotropic, mode="full")
    ts = transform.verify_transform(barotropic, candidate, plan(), tol=1e-9)
    assert ts.verdict == "pass"
    assert ts.annihilation_max <= 1e-10
    assert ts.off_block_max <= 1e-10
    # diagonal entries equal the transformed variables
    for T, U in zip(ts.t_matrices, ts.u_values):
        assert abs(T[0, 0] - U[0]) <= 1e-9
        assert abs(T[1, 1] - U[1]) <= 1e-9
    assert ts.min_abs_det >= 1.0  # det grad H = 2 sqrt(3 p0)
    # inverse hint present: block dependence diagnostics are reported
    assert ts.block_dependence is not None


def test_verify_identity_on_triangular_system():
    doc = {"n": 3, "states": ["a", "b", "c"],
           "A": [["a", "0", "0"], ["1", "a+b", "0"], ["0", "1", "c"]],
           "domain": {"a": [1.0, 2.0], "b": [-1, 1], "c": [4, 5]}}
    sys_ = load_system(json.dumps(doc))
    p = cond.PartitionScheme([[0], [1], [2]], "partial")
    candidate = transform.TransformCandidate.from_strings(
        ["a", "b", "c"], p, ["a", "b", "c"])
    ts = transform.verify_transform(sys_, candidate, plan(count=40), frame="numeric")
    assert ts.off_block_max <= 1e-12


def test_block_dependence_probes_each_row_at_its_x():
    # T = A here, and T[0][0] = U1 + x*U2 depends on the later block's U2 at
    # rate x, so the probe must see max |x| over the probe rows (0 at x = 0)
    doc = {"n": 2, "states": ["a", "b"], "A": [["a + x*b", "0"], ["0", "b"]],
           "domain": {"a": [-3, -2], "b": [0, 1], "x": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    p = cond.PartitionScheme([[0], [1]], "partial")
    candidate = transform.TransformCandidate.from_strings(
        ["a", "b"], p, ["a", "b"], inverse=["U1", "U2"])
    ts = transform.verify_transform(sys_, candidate, SamplePlan(count=64, seed=3))
    probes = ts.samples[:: max(1, len(ts.samples) // 8)]
    assert ts.verdict == "pass"
    assert ts.block_dependence["block1"] == pytest.approx(np.max(np.abs(probes[:, 1])),
                                                          abs=1e-6)
    assert ts.block_dependence["block1"] > 0.5


def test_verify_isentropic_t33_and_off_block_facts():
    # the claimed map gives T33 = (U1+U2)/2 exactly, but T13 = T23 =
    # -(p0 rho^2 s - f'(s)/rho) do not vanish, so the partial verdict fails
    entry = models.build_isentropic("s")
    sys_ = entry.system
    candidate = transform.TransformCandidate.from_hints(sys_, mode="partial")
    ts = transform.verify_transform(sys_, candidate, plan(count=120), tol=1e-6)
    for row, T, U in zip(ts.samples, ts.t_matrices, ts.u_values):
        rho, v, s = row[2:]
        assert abs(T[2, 2] - 0.5 * (U[0] + U[1])) <= 1e-8
        expected_t13 = -(rho**2 * s - 1.0 / rho)
        assert T[0, 2] == pytest.approx(expected_t13, rel=1e-8, abs=1e-10)
        assert T[1, 2] == pytest.approx(expected_t13, rel=1e-8, abs=1e-10)
    assert ts.verdict == "fail"
    assert ts.off_block_max >= 1e-2


def test_verify_threadline_identity_partial_22():
    sys_ = models.build_threadline(k=1.0).system
    candidate = transform.TransformCandidate.from_hints(sys_)
    ts = transform.verify_transform(sys_, candidate, plan(count=80), tol=1e-6)
    assert ts.verdict == "pass"
    assert ts.off_block_max <= 1e-12
    assert ts.annihilation_max <= 1e-12


def test_verify_singular_candidate(barotropic):
    p = cond.PartitionScheme([[0], [1]], "full")
    candidate = transform.TransformCandidate.from_strings(
        ["rho + v", "2*rho + 2*v"], p, ["rho", "v"])
    with pytest.raises(SingularCandidate):
        transform.verify_transform(barotropic, candidate, plan(count=30))


def test_conjugation_identities(barotropic):
    # eigenvalues of T at H(u) equal eigenvalues of A at u; transported
    # right autovectors match after pivot normalization
    candidate = transform.TransformCandidate.from_hints(barotropic, mode="full")
    ts = transform.verify_transform(barotropic, candidate, plan(count=50))
    grads = [[ex.differentiate(e, nm) for nm in barotropic.states]
             for e in candidate.components]
    for row, T in zip(ts.samples, ts.t_matrices):
        t, x, u = row[0], row[1], row[2:]
        A = barotropic.eval_matrix(t, x, u)
        wA = np.sort(np.linalg.eigvals(A).real)
        wT = np.sort(np.linalg.eigvals(T).real)
        np.testing.assert_allclose(wA, wT, atol=1e-8)
        bind = dict(zip(barotropic.arg_order, (t, x, *u)))
        J = np.array([[ex.evaluate(g, bind) for g in rowg] for rowg in grads])
        _, VT = np.linalg.eig(T)
        wT_raw = np.linalg.eigvals(T)
        fA = eigen.spectrum_at(barotropic, t, x, u)
        for slot in range(2):
            lam = fA.values[0, slot].real
            col = VT[:, int(np.argmin(np.abs(wT_raw - lam)))].real
            back = np.linalg.solve(J, col)
            back = back / back[np.argmax(np.abs(back))]
            np.testing.assert_allclose(back, fA.rights[0, slot], atol=1e-6)


def test_equivalence_chain_annihilation_implies_off_block():
    # jointly on the passing fixtures: zero annihilation residuals come with
    # zero off-block entries
    for entry, mode in ((models.build_barotropic("p0*rho^3"), "full"),
                        (models.build_threadline(1.0), None)):
        sys_ = entry.system
        candidate = transform.TransformCandidate.from_hints(sys_, mode=mode)
        ts = transform.verify_transform(sys_, candidate, plan(count=40))
        assert ts.annihilation_max <= 1e-10
        assert ts.off_block_max <= 1e-9



def test_verify_transform_excluded_degenerate_and_singular_samples():
    # sqrt(a) has no value for a < 0, b > 0.8 is excluded, and the second
    # component b - |b - c| has a zero b-derivative for b > c
    doc = {"n": 2, "states": ["a", "b"], "A": [["sqrt(a)", "0"], ["b", "2 + a"]],
           "domain": {"a": [-0.5, 1], "b": [-1, 1]}, "exclude": ["b - 0.8"]}
    sys_ = load_system(json.dumps(doc))
    p = cond.PartitionScheme([[0], [1]], "full")
    candidate = transform.TransformCandidate.from_strings(["a", "b - abs(b - 0.78)"], p,
                                                          ["a", "b"])
    ts = transform.verify_transform(sys_, candidate, SamplePlan(count=300, seed=1))
    # of 300 samples 23 are excluded and 92 have no frame; 1 of the other
    # 185 is singular, under the 1 % that rejects the candidate
    assert (ts.excluded, ts.degenerate, len(ts.samples)) == (23, 92, 184)
    assert ts.verdict == "fail" and ts.min_abs_det == 2.0
    assert ts.annihilation_max == pytest.approx(1.106995036701812, rel=1e-12)
    assert ts.annihilation_mean == pytest.approx(0.2498286316700897, rel=1e-12)
    assert ts.off_block_max == pytest.approx(1.9694367779629829, rel=1e-12)
    with pytest.raises(SingularCandidate, match="at 4 of 182 samples"):
        transform.verify_transform(sys_, candidate, SamplePlan(count=300, seed=3))


# --- characteristic flows -----------------------------------------------------


def test_flow_preserves_riemann_invariant(barotropic):
    # along r_2 the first transformed variable v + sqrt(3) rho is constant
    pts, info = transform.characteristic_flow(barotropic, 1, np.array([1.0, 0.0]),
                                              arc_length=0.3, steps=64)
    assert not info["left_domain"]
    h1 = [p[1] + S3 * p[0] for p in pts]
    assert abs(h1[-1] - h1[0]) <= 1e-7
    # and the other invariant changes
    h2 = [p[1] - S3 * p[0] for p in pts]
    assert abs(h2[-1] - h2[0]) >= 0.1


def test_flow_zero_field_repeats_start():
    pts, info = transform.integrate_field(lambda u: np.zeros(2),
                                          np.array([0.3, 0.4]), 1.0, 8)
    assert np.allclose(pts, pts[0])
    assert info["error_estimate"] == 0.0


def test_flow_stopped_at_its_start_skips_the_domain_test():
    # a field undefined at the start stops the one curve before its first
    # step, so no state is left to test against the domain
    pts, info = transform.integrate_field(lambda u: np.full(2, np.nan), np.array([0.3, 0.4]),
                                          1.0, 4, in_domain=lambda u: True)
    assert pts.tolist() == [[0.3, 0.4]]
    assert info["tolerance_met"] is False and not info["left_domain"]


def test_flow_truncates_at_domain_boundary(barotropic):
    pts, info = transform.characteristic_flow(barotropic, 0, np.array([1.9, 0.9]),
                                              arc_length=2.0, steps=32)
    assert info["left_domain"]


def test_flow_batch_rows_have_their_own_arcs_and_masks():
    # du/ds = -u gives u0 exp(-s) per row; the field is undefined for
    # u_0 > 5, which fails that row only
    def field(U):
        out = -U.copy()
        out[U[:, 0] > 5.0] = np.nan
        return out

    start = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 1.0], [6.0, 0.0]])
    arcs = np.array([0.7, -1.2, 0.0, 0.5])
    ends, info = transform.integrate_field(field, start, arcs, 8)
    # within the default error budget 1e-8 * |arc|
    np.testing.assert_allclose(ends[:3], start[:3] * np.exp(-arcs[:3, None]),
                               rtol=0, atol=1.2e-8)
    assert info["failed"].tolist() == [False, False, False, True]
    assert info["missed"].tolist() == [False, False, False, True]
    assert info["tolerance_met"] is False
    assert isinstance(info["steps"], int)
    # each row matches the same curve integrated alone
    for row, arc, end in zip(start[:3], arcs[:3], ends[:3]):
        pts, one = transform.integrate_field(lambda u: -u, row, arc, 8)
        np.testing.assert_allclose(pts[-1], end, rtol=1e-14)
        assert "tolerance_met" not in one


def test_flow_rows_whose_error_does_not_fall_stop_refining():
    # row 0 follows a smooth field that meets its budget after refining;
    # row 1 a field with a kink at every 1e-3 in u_0, whose error estimate
    # stops falling as the steps double, so it stops refining over budget
    def field(U):
        out = np.column_stack([np.ones(len(U)), -U[:, 1]])
        kinked = U[:, 1] > 5.0
        out[kinked, 1] = np.abs(np.sin(1e3 * np.pi * U[kinked, 0]))
        return out

    start = np.array([[0.0, 1.0], [0.0, 10.0]])
    ends, info = transform.integrate_field(field, start, np.array([3.0, 3.0]), 8)
    np.testing.assert_allclose(ends[0], [3.0, np.exp(-3.0)], rtol=0, atol=3e-8)
    assert info["missed"].tolist() == [False, True] and not info["failed"].any()
    assert info["tolerance_met"] is False
    smooth, _ = transform.integrate_field(field, start[0], 3.0, 8)
    assert np.array_equal(smooth[-1], ends[0])
    # 11 field calls per RK4 step with its two half steps: row 1 alone runs
    # the passes of 8, 16 and 32 steps, where all 7 would take 11 * 1016
    kinked, alone = transform.integrate_field(field, start[1], 3.0, 8)
    assert np.array_equal(kinked[-1], ends[1])
    assert alone["fieldCalls"] == 11 * (8 + 16 + 32) and alone["tolerance_met"] is False


def test_hinted_flow_raises_where_its_start_fails_the_residual_gate():
    # abs(p) is the wrong eigenvalue of diag(p, 2) for p < 0: the near
    # frames of the field skip the residual gates, but the base frame at the
    # first start, the field's reference as for numeric frames, does not
    doc = {"n": 2, "states": ["p", "q"], "A": [["p", "0"], ["0", "2"]],
           "domain": {"p": [-1.0, 1.0], "q": [-1.0, 1.0]},
           "autovectorHint": {"eigenvalues": ["abs(p)", "2"],
                              "right": [["1", "0"], ["0", "1"]]}}
    sys_ = load_system(json.dumps(doc))
    pts, info = transform.characteristic_flow(sys_, 0, np.array([0.2, 0.0]), 0.5,
                                              frame="analytic")
    assert pts[-1] == pytest.approx([0.7, 0.0]) and not info["left_domain"]
    for start in ([-0.5, 0.0], [[-0.5, 0.0], [0.2, 0.0]]):
        with pytest.raises(HintInconsistent, match="hinted right vector 0"):
            transform.characteristic_flow(sys_, 0, np.array(start), 0.5, frame="analytic")


@pytest.mark.parametrize("frame", ["analytic", "numeric"])
@pytest.mark.parametrize("name, start", [
    ("barotropic", [[1.0, 0.2], [1.9, 0.9]]),
    ("threadline", [[1.0, 0.1, 0.2, 0.1], [1.9, 0.9, 0.2, 0.45]]),
])
def test_flow_batch_rows_match_single_curves(name, start, frame):
    # the first and last slot from two starts as one batch, the second near
    # the domain's corner: each row ends bit for bit where a plain
    # integrate_field of that slot's rights, aligned to the batch's first
    # start, ends from that row alone, and stops at the domain boundary when
    # and only when that curve does; the first row (every row for analytic
    # frames, which need no alignment) also ends where its curve run alone ends
    sys_ = (models.build_barotropic("p0*rho^3") if name == "barotropic"
            else models.build_threadline(1.0)).system
    starts = np.array(start)
    machine = cond.FrameMachine(sys_, frame)
    reference = machine.base(0.0, 0.0, starts[0])
    alone = range(len(starts)) if frame == "analytic" else range(1)
    split = False
    for slot in (0, sys_.n - 1):
        for arc in (0.1, 2.0):
            ends, info = transform.characteristic_flow(sys_, slot, starts, arc, steps=16,
                                                       frame=frame)
            assert ends.shape == starts.shape
            lengths = []
            for k, start in enumerate(starts):
                plain, one = transform.integrate_field(
                    lambda U: machine.frames(0.0, 0.0, U, reference, lefts=False).rights[:, slot],
                    start, arc, 16, in_domain=lambda U: sys_.in_domain(0.0, 0.0, U))
                assert ends[k].tobytes() == plain[-1].tobytes()
                assert info["left_domain"][k] == one["left_domain"]
                assert info["error_estimate"][k] == one["error_estimate"]
                lengths.append(len(plain))
                if k in alone:
                    pts, _ = transform.characteristic_flow(sys_, slot, start, arc, steps=16,
                                                           frame=frame)
                    assert ends[k].tobytes() == pts[-1].tobytes()
            if arc == 2.0:
                # both rows leave the domain, at different steps
                assert info["left_domain"].all() and lengths[0] != lengths[1]
            else:
                assert not info["left_domain"][0]
                split |= bool(info["left_domain"][1])
    # on some short pass the corner row leaves while the first row runs on
    assert split
    for bad in (sys_.n, -1):
        with pytest.raises(IndexError, match="flow slot out of range"):
            transform.characteristic_flow(sys_, bad, starts, 0.1, frame=frame)


def test_flows_commute_in_adapted_scaling():
    # fields (grad H)^-1 e_j of a fully decoupled oracle commute; compare
    # both flow orders from one start state
    tri_doc = {"n": 2, "states": ["U1", "U2"],
               "A": [["U1", "0"], ["0", "U2"]],
               "domain": {"U1": [-6, 6], "U2": [-6, 6]}}
    tri = load_system(json.dumps(tri_doc))
    H = [ex.parse(f"v + {S3}*rho", {"rho", "v"}), ex.parse(f"v - {S3}*rho", {"rho", "v"})]
    grads = [[ex.differentiate(e, nm) for nm in ("rho", "v")] for e in H]

    def adapted_field(j):
        def fn(U):
            out = []
            for u in U:
                bind = {"rho": u[0], "v": u[1]}
                J = np.array([[ex.evaluate(g, bind) for g in row] for row in grads])
                out.append(np.linalg.solve(J, np.eye(2)[:, j]))
            return np.array(out)
        return fn

    start = np.array([1.0, 0.0])
    s1, s2 = 0.4, 0.3
    a1, _ = transform.integrate_field(adapted_field(0), start, s1, 32)
    a2, _ = transform.integrate_field(adapted_field(1), a1[-1], s2, 32)
    b1, _ = transform.integrate_field(adapted_field(1), start, s2, 32)
    b2, _ = transform.integrate_field(adapted_field(0), b1[-1], s1, 32)
    assert np.linalg.norm(a2[-1] - b2[-1]) <= 1e-6


# --- numeric construction -------------------------------------------------------


@pytest.mark.parametrize("frame", ["analytic", "numeric"])
def test_construct_transform_barotropic_monotone(barotropic, frame):
    p = cond.PartitionScheme([[0], [1]], "full")
    report = cond.check_partition(barotropic, p, plan(count=60), frame=frame)
    out = transform.construct_transform_numeric(barotropic, p, np.array([1.0, 0.0]),
                                                (10, 10), frame=frame, report=report)
    q = out["quality"]
    assert not q["untrusted"]
    assert q["flaggedCells"] == 0
    assert q["toleranceMissed"] == 0
    # reads 1.8e-14 (analytic) and 1.1e-14 (numeric)
    assert q["gridAnnihilationMax"] <= 1e-12
    # constructed first component is a strictly monotone function of a known
    # invariant: v + sqrt(3) rho for the hinted slot order, v - sqrt(3) rho
    # when numeric slots ascend by eigenvalue
    lead = 1.0 if frame == "analytic" else -1.0
    vals = out["values"][..., 0].ravel()
    axes = out["axes"]
    mesh = np.meshgrid(*axes, indexing="ij")
    invariant = (mesh[1] + lead * S3 * mesh[0]).ravel()
    order = np.argsort(invariant)
    sorted_vals = vals[order]
    diffs = np.diff(sorted_vals)
    # rank correlation 1: sorted by invariant, the constructed map is sorted
    assert np.all(diffs > -1e-9)
    # functional dependence: points with nearly equal invariant map to nearly
    # equal values (a second-coordinate dependence of 0.01 would break this)
    inv_rng = float(invariant.max() - invariant.min())
    h_rng = float(vals.max() - vals.min())
    slope_bound = 5.0 * h_rng / inv_rng
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(2000):
        i, j = rng.integers(0, len(vals), size=2)
        d_inv = abs(invariant[i] - invariant[j])
        if d_inv <= 0.02 * inv_rng:
            assert abs(vals[i] - vals[j]) <= slope_bound * d_inv + 1e-4
            checked += 1
    assert checked > 50
    # the slice-normalized flows are straight lines, so each component is
    # exactly affine in its Riemann invariant
    for comp, sign in ((0, lead), (1, -lead)):
        h = out["values"][..., comp].ravel()
        riemann = (mesh[1] + sign * S3 * mesh[0]).ravel()
        design = np.column_stack([np.ones_like(riemann), riemann])
        coef, *_ = np.linalg.lstsq(design, h, rcond=None)
        assert np.max(np.abs(design @ coef - h)) <= 1e-9 * float(h.max() - h.min())


def test_construct_transform_on_triangular_synthetic():
    tri, maps, entry = models.build_synthetic_triangular(seed=21, n=2, block_sizes=(1, 1))
    sys_ = entry.system
    p = cond.PartitionScheme(entry.extras["blocks"], "partial")
    report = cond.check_partition(sys_, p, plan(count=40))
    assert report.verdict == "pass"
    base = np.zeros(2)
    out = transform.construct_transform_numeric(sys_, p, base, (10, 10), report=report)
    # reads 4.2e-8
    assert out["quality"]["gridAnnihilationMax"] <= 1e-7


def _span_residual(entry, out):
    """Largest relative least-squares residual, over the interior grid states,
    of each constructed block component's np.gradient against the row span of
    the closed-form grad H^s of the slots s its block may depend on.  Numeric
    slots ascend by eigenvalue, which the oracle's diagonal offsets sort by
    block, so slot s is the oracle's component H^s."""
    n = entry.system.n
    names = entry.extras["u_names"]
    axes = out["axes"]
    inner = tuple(slice(1, -1) for _ in range(n))
    grads = np.stack(np.gradient(out["values"], *axes, axis=tuple(range(n))), axis=-1)
    grads = grads[inner].reshape(-1, n, n)
    mesh = np.meshgrid(*[ax[1:-1] for ax in axes], indexing="ij")
    U = np.stack([m.ravel() for m in mesh], axis=1)
    fn = ex.compile_expression([ex.differentiate(h, nm) for h in entry.extras["H"]
                                for nm in names], names)
    closed = np.array(fn(*U.T)).T.reshape(-1, n, n)
    partition = cond.PartitionScheme(entry.extras["blocks"], "partial")
    worst = 0.0
    for i, blk in enumerate(partition.blocks):
        keep = [s for j, bj in enumerate(partition.blocks)
                if not partition.forbidden(i, j) for s in bj]
        Q, _ = np.linalg.qr(np.swapaxes(closed[:, keep], 1, 2))
        for a in blk:
            g = grads[:, a]
            res = g - (Q @ (np.swapaxes(Q, 1, 2) @ g[:, :, None]))[:, :, 0]
            worst = max(worst, float(np.max(np.linalg.norm(res, axis=1)
                                            / np.linalg.norm(g, axis=1))))
    return worst


@pytest.mark.parametrize("seed, n, sizes, defect, grid, verdict", [
    (21, 2, (1, 1), 0.0, 10, "pass"),
    (3, 3, (1, 1, 1), 0.0, 5, "pass"),
    (4, 3, (2, 1), 0.2, 5, "fail"),
])
def test_constructed_components_depend_only_on_allowed_oracle_components(
        seed, n, sizes, defect, grid, verdict):
    # known answer: the oracle's block-i components H^s, s in the blocks
    # block i may depend on, are closed form, and each constructed block-i
    # component must be a function of them alone; its grid gradient lies in
    # their gradients' span up to 1e-5 relative (these cases read 4.3e-8,
    # 1.3e-7 and 5.7e-7)
    _, _, entry = models.build_synthetic_triangular(seed=seed, n=n, block_sizes=sizes,
                                                    off_block_defect=defect)
    p = cond.PartitionScheme(entry.extras["blocks"], "partial")
    report = cond.check_partition(entry.system, p, plan(count=40))
    out = transform.construct_transform_numeric(entry.system, p, np.zeros(n), (grid,) * n,
                                                report=report)
    assert _span_residual(entry, out) <= 1e-5
    assert out["quality"]["gridAnnihilationMax"] <= 1e-5
    # an off-block defect keeps the forbidden autovectors annihilated: the
    # partition verdict alone rejects it
    assert report.verdict == verdict


def test_construction_quality_skips_flagged_cells(barotropic):
    # exact affine map v +- sqrt(3) rho with one flagged interior cell: the
    # grid Jacobian is taken only where the difference stencil is NaN-free
    p = cond.PartitionScheme([[0], [1]], "full")
    axes = [np.linspace(0.6, 1.9, 8), np.linspace(-0.9, 0.9, 8)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([mesh[1] + S3 * mesh[0], mesh[1] - S3 * mesh[0]], axis=-1)
    machine = cond.FrameMachine(barotropic, "analytic")

    def quality(values):
        return transform._construction_quality(barotropic, p, axes, (8, 8),
                                               values.reshape(-1, 2), machine,
                                               0, 0.0, 0.0)

    clean = quality(grid)
    holed = grid.copy()
    holed[3, 4] = np.nan
    q = quality(holed)
    assert clean["gridCellsSkipped"] == 0
    assert q["gridCellsSkipped"] > 0
    # the gate checks the 6 x 6 interior states whose stencil is NaN-free
    assert clean["gridCellsChecked"] == 36
    assert 0 < q["gridCellsChecked"] < 36
    assert q["minAbsGridJacobianDet"] == clean["minAbsGridJacobianDet"]
    assert q["gridAnnihilationMax"] <= 1e-12


def _levels(sys_, partition, frame, base):
    """The frame machine, base frame and shooting levels (Minv, flow) that
    construct_transform_numeric builds for `partition`."""
    machine = cond.FrameMachine(sys_, frame)
    base_frame = machine.base(0.0, 0.0, base)
    levels = []
    for i in range(len(partition.blocks)):
        keep, flow = [], []
        for j, bj in enumerate(partition.blocks):
            (flow if partition.forbidden(i, j) else keep).extend(bj)
        if flow:
            M = np.column_stack([base_frame.rights[0, s] for s in keep + flow])
            levels.append((np.linalg.inv(M), flow))
    return machine, base_frame, levels


@pytest.mark.parametrize("name, frame", [("barotropic", "analytic"), ("barotropic", "numeric"),
                                         ("isentropic", "numeric")])
def test_shoot_levels_together_match_each_level_alone(name, frame):
    # all levels as one stack give each level's landing states and masks bit
    # for bit; the isentropic levels have two flow slots each and take
    # several shots
    if name == "barotropic":
        sys_, blocks, base = models.build_barotropic("p0*rho^3").system, [[0], [1]], [1.0, 0.0]
    else:
        sys_, blocks, base = models.build_isentropic("s").system, [[0], [1], [2]], [1.0, 0.0, 1.0]
    base = np.array(base)
    machine, base_frame, levels = _levels(sys_, cond.PartitionScheme(blocks, "full"), frame,
                                          base)
    states = sys_.sample_points(SamplePlan(count=12, seed=3))[:, 2:]
    states = states[~sys_.is_excluded(0.0, 0.0, states)]
    work = Counter()
    land, reached, missed = transform._shoot(machine, base_frame, 0.0, 0.0, states, base,
                                             levels, work)
    alone = Counter()
    for lv, level in enumerate(levels):
        one = transform._shoot(machine, base_frame, 0.0, 0.0, states, base, [level], alone)
        assert [a[0].tobytes() for a in one] == [land[lv].tobytes(), reached[lv].tobytes(),
                                                missed[lv].tobytes()]
        assert reached[lv].any()
    assert work["fieldEvaluations"] == alone["fieldEvaluations"]
    assert work["steps"] == alone["steps"]
    assert work["shots"] < alone["shots"]
    assert work["fieldCalls"] < alone["fieldCalls"]


class _TableFrames:
    """A frame machine stub: the rights of row k are table[int(U[k, 0])]."""

    def __init__(self, table):
        self.table = table

    def frames(self, t, x, U, reference=None, lefts=True):
        return eigen.FrameStack(np.zeros(U.shape, dtype=complex),
                                self.table[U[:, 0].astype(int)], None)


def test_landing_field_gates_parallel_rows_and_lands_every_offset():
    # level 0 flows along slot 2, level 1 along slots 1 and 2; rows are
    # (u, level, d) with u_0 naming the row's rights
    ell0 = np.array([[0.0, 0.0, 1.0]])
    ell1 = np.array([[0.2, 1.0, -0.3], [0.1, 0.4, 1.0]])
    table = np.stack([np.array([[1.0, 0.0, 0.0], [0.3, 0.9, -0.2], [0.5, -0.4, 1.1]])] * 4)
    table[1, 2] = [1.0, 2.0, 0.0]    # exactly parallel to the level-0 slice
    table[2, 2] = [1.0, 0.0, 1e-13]  # ell0 . r = 1e-13 |r|
    table[3] = np.nan                # a rejected frame
    field = transform._landing_field(_TableFrames(table), None, 0.0, 0.0,
                                     [(ell0, [2]), (ell1, [1, 2])])
    V = np.array([[0, 0.3, 0.1, 0, 1.0, 0.0],
                  [1, 0.3, 0.1, 0, 1.0, 0.0],
                  [2, 0.3, 0.1, 0, -1.0, 0.0],
                  [0, 0.3, 0.1, 0, -1.0, 0.0],
                  [0, 0.3, 0.1, 1, 0.6, -0.8],
                  [3, 0.3, 0.1, 1, 0.6, -0.8],
                  [2, 0.3, 0.1, 1, -0.8, 0.6]])
    out = field(V)
    assert np.isnan(out[[1, 2, 5], :3]).all()
    for k, ell in [(0, ell0), (3, ell0), (4, ell1), (6, ell1)]:
        assert np.isfinite(out[k]).all()
        np.testing.assert_allclose(ell @ out[k, :3], -V[k, 4:4 + len(ell)], rtol=0, atol=1e-12)
    assert not out[:, 3:].any()


@pytest.mark.parametrize("broken, level", [({1}, 2), ({0, 1}, 1)])
def test_shooting_failed_names_first_level_without_landing(barotropic, monkeypatch,
                                                           broken, level):
    # a flow field undefined on every row of a level lands none of its states
    landing_field = transform._landing_field

    def failing(*args):
        field = landing_field(*args)

        def fn(V):
            out = field(V)
            out[np.isin(V[:, 2], list(broken)), :2] = np.nan
            return out
        return fn

    monkeypatch.setattr(transform, "_landing_field", failing)
    p = cond.PartitionScheme([[0], [1]], "full")
    with pytest.raises(ShootingFailed) as exc:
        transform.construct_transform_numeric(barotropic, p, np.array([1.0, 0.0]), (4, 4))
    assert str(exc.value) == f"no grid state reached the level-{level} slice"


def test_construct_transform_base_point_outside(barotropic):
    p = cond.PartitionScheme([[0], [1]], "full")
    with pytest.raises(DomainError):
        transform.construct_transform_numeric(barotropic, p, np.array([10.0, 0.0]),
                                              (8, 8))


def test_interpolate_grid_linear_exact():
    axes = [np.linspace(0, 1, 5), np.linspace(0, 2, 7)]
    mesh = np.meshgrid(*axes, indexing="ij")
    values = np.stack([2 * mesh[0] + 3 * mesh[1], mesh[0] - mesh[1]], axis=-1)
    got = transform.interpolate_grid(axes, values, np.array([0.37, 1.21]))
    np.testing.assert_allclose(got, [2 * 0.37 + 3 * 1.21, 0.37 - 1.21], rtol=1e-12)


def test_isentropic_claimed_variable_is_not_transported():
    # dynamic version of the off-block fact: evolve the coupled system, then
    # compare v + sqrt(3) rho s against scalar self-transport of its initial
    # data; the gap converges to a nonzero limit under grid refinement, so it
    # is a property of the PDE, not of the discretization
    import qldecouple.hypsolve as hypsolve
    from qldecouple.system import load_system as _ls

    entry = models.build_isentropic("s")
    sys_ = entry.system
    initial = ["1 + 0.1*sin(2*pi*x)", "0", "1 + 0.2*cos(2*pi*x)"]
    t_end = 0.05
    gaps = []
    for N in (200, 400):
        sol = hypsolve.solve_coupled(sys_, initial, N, t_end,
                                     scheme="upwindCharacteristic", cfl=0.8)
        x = sol.x
        u1_0 = S3 * (1 + 0.1 * np.sin(2 * np.pi * x)) * (1 + 0.2 * np.cos(2 * np.pi * x))
        rho, v, s = sol.data[-1]
        u1_t = v + S3 * rho * s
        burg = _ls({"n": 1, "states": ["w"], "A": [["w"]],
                    "domain": {"w": [-9, 9], "x": [0, 1]}})
        bs = hypsolve.solve_coupled(burg, np.array([u1_0]), N, t_end,
                                    scheme="upwindCharacteristic", cfl=0.8)
        gaps.append(float(np.max(np.abs(u1_t - bs.data[-1][0]))))
    assert gaps[1] >= 0.015            # nonvanishing discrepancy
    assert gaps[0] / gaps[1] <= 1.2    # and it does not shrink with refinement
