import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qldecouple import eigen
from qldecouple.errors import DomainError, HintInconsistent, IllConditioned, MismatchedSignature
from qldecouple.system import SamplePlan, load_system

S3 = math.sqrt(3.0)


def barotropic(with_hints=True):
    doc = {
        "n": 2,
        "states": ["rho", "v"],
        "parameters": {"p0": 1.0},
        "A": [["v", "rho"], ["3*p0*rho^2/rho", "v"]],
        "domain": {"rho": [0.5, 2.0], "v": [-1.0, 1.0]},
    }
    if with_hints:
        doc["autovectorHint"] = {
            "eigenvalues": ["v + sqrt(3*p0)*rho", "v - sqrt(3*p0)*rho"],
            "right": [["rho", "sqrt(3*p0)*rho"], ["rho", "-sqrt(3*p0)*rho"]],
            "left": [["sqrt(3*p0)*rho", "rho"], ["sqrt(3*p0)*rho", "-rho"]],
        }
    return load_system(json.dumps(doc))


def threadline(k=1.0):
    doc = {
        "n": 4,
        "states": ["rho", "Vx", "v", "eps"],
        "parameters": {"k": k},
        "A": [
            ["Vx", "rho", "0", "0"],
            ["k/rho^3", "Vx", "0", "0"],
            ["0", "0", "2*Vx", "Vx^2 - k/rho^2"],
            ["0", "0", "-1", "0"],
        ],
        "domain": {"rho": [0.5, 2.0], "Vx": [-1.0, 1.0], "v": [-1.0, 1.0],
                   "eps": [-0.5, 0.5]},
        "autovectorHint": {
            "eigenvalues": ["Vx + sqrt(k)/rho", "Vx - sqrt(k)/rho",
                            "Vx + sqrt(k)/rho", "Vx - sqrt(k)/rho"],
            "right": [
                ["rho", "sqrt(k)/rho", "0", "0"],
                ["rho", "-sqrt(k)/rho", "0", "0"],
                ["0", "0", "-(Vx + sqrt(k)/rho)", "1"],
                ["0", "0", "-(Vx - sqrt(k)/rho)", "1"],
            ],
        },
    }
    return load_system(json.dumps(doc))


def fixed_matrix_system(rows, n=None, box=4.0):
    n = n or len(rows)
    states = [f"u{i+1}" for i in range(n)]
    doc = {"n": n, "states": states,
           "A": [[str(v) for v in row] for row in rows],
           "domain": {s: [-box, box] for s in states}}
    return load_system(json.dumps(doc))


def test_barotropic_spectrum_matches_closed_form():
    sys_ = barotropic(with_hints=False)
    f = eigen.spectrum_at(sys_, 0.0, 0.0, np.array([1.0, 0.0]))
    np.testing.assert_allclose(sorted(f.values[0].real), [-S3, S3], rtol=1e-12)
    assert all(abs(v.imag) < 1e-12 for v in f.values[0])
    # rights proportional to (1, +-sqrt3): slot order ascending eigenvalue
    for slot, sign in ((0, -1.0), (1, 1.0)):
        r = f.rights[0, slot]
        assert abs(r[1] / r[0] - sign * S3) < 1e-10
    # pivot convention: largest component is +1
    for r in f.rights[0]:
        assert np.max(np.abs(r)) == pytest.approx(1.0)
        assert r[np.argmax(np.abs(r))] == pytest.approx(1.0)
    # biorthogonality
    np.testing.assert_allclose(f.lefts[0] @ f.rights[0].T, np.eye(2), atol=1e-12)


def test_identity_spectrum_single_cluster():
    sys_ = fixed_matrix_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    sp = eigen.spectrum_at(sys_, 0, 0, np.zeros(3))
    assert sp.signature(0) == ((3, False),)
    assert sp.mult[0].tolist() == [3, 3, 3]
    assert sp.kinds[0].tolist() == [eigen.KIND_EIGEN] * 3
    # autovectors span the standard basis
    np.testing.assert_allclose(np.abs(sp.rights[0]), np.eye(3), atol=1e-12)


def test_rotation_matrix_complex_pair():
    sys_ = fixed_matrix_system([[0, -1], [1, 0]])
    f = eigen.spectrum_at(sys_, 0, 0, np.zeros(2))
    assert f.signature(0) == ((2, True),)
    assert f.cplx[0].all() and f.mult[0].tolist() == [2, 2]
    lam = f.values[0, 0]
    assert lam.real == pytest.approx(0.0, abs=1e-12)
    assert lam.imag == pytest.approx(1.0, rel=1e-12)
    assert f.kinds[0].tolist() == [eigen.KIND_COMPLEX_RE, eigen.KIND_COMPLEX_IM]
    r_re, r_im = f.rights[0]
    np.testing.assert_allclose(r_re, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(r_im, [0.0, -1.0], atol=1e-12)
    # real Jordan pair relations: A r_re = Re(lam) r_re - Im(lam) r_im
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(A @ r_re, lam.real * r_re - lam.imag * r_im, atol=1e-12)
    np.testing.assert_allclose(A @ r_im, lam.imag * r_re + lam.real * r_im, atol=1e-12)


def test_threadline_two_double_clusters():
    sys_ = threadline()
    sp = eigen.spectrum_at(sys_, 0, 0, np.array([1.0, 0.3, 0.0, 0.1]))
    assert sp.signature(0) == ((2, False), (2, False))
    vals = sorted(sp.values[0, [0, 2]].real)
    assert vals[0] == pytest.approx(0.3 - 1.0, rel=1e-9)
    assert vals[1] == pytest.approx(0.3 + 1.0, rel=1e-9)


def test_jordan_chain():
    sys_ = fixed_matrix_system([[1, 1], [0, 1]])
    f = eigen.spectrum_at(sys_, 0, 0, np.zeros(2))
    assert f.signature(0) == ((2, False),)
    assert f.kinds[0, 0] == eigen.KIND_EIGEN
    assert f.kinds[0, 1] == eigen.generalized_kind(2)
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = A - np.eye(2)
    assert np.linalg.norm(B @ f.rights[0, 0]) < 1e-10
    assert np.linalg.norm(B @ B @ f.rights[0, 1]) < 1e-10
    assert np.linalg.norm(B @ f.rights[0, 1]) > 0.5


def test_ill_conditioned_raises():
    sys_ = fixed_matrix_system([[1, 1e9], [0, 2]], box=1e10)
    with pytest.raises(IllConditioned):
        eigen.spectrum_at(sys_, 0, 0, np.zeros(2))


# --- alignment ---------------------------------------------------------------

def test_align_sign_flip():
    sys_ = barotropic(with_hints=False)
    ref = eigen.spectrum_at(sys_, 0, 0, np.array([1.0, 0.0]))
    raw = eigen.spectrum_at(sys_, 0, 0, np.array([1.0, 0.0]))
    flipped = raw.rights.copy()
    flipped[0, 0] = -flipped[0, 0]
    raw2 = eigen.FrameStack(raw.values, flipped, np.linalg.inv(np.swapaxes(flipped, 1, 2)),
                            mult=raw.mult, cplx=raw.cplx, kinds=raw.kinds)
    out = eigen.align_frames(ref, raw2)
    np.testing.assert_allclose(out.rights, ref.rights, atol=1e-12)


def test_align_identical_frames_unchanged_and_idempotent():
    sys_ = barotropic(with_hints=False)
    ref = eigen.spectrum_at(sys_, 0, 0, np.array([1.3, 0.2]))
    out = eigen.align_frames(ref, eigen.spectrum_at(sys_, 0, 0, np.array([1.3, 0.2])))
    np.testing.assert_allclose(out.rights, ref.rights, atol=1e-14)
    out2 = eigen.align_frames(ref, out)
    np.testing.assert_allclose(out2.rights, out.rights, atol=1e-14)


def test_align_continuity_nearby_points():
    sys_ = barotropic(with_hints=False)
    ref = eigen.spectrum_at(sys_, 0, 0, np.array([1.0, 0.0]))
    raw = eigen.spectrum_at(sys_, 0, 0, np.array([1.001, 0.0]))
    out = eigen.align_frames(ref, raw)
    for slot in range(2):
        assert np.linalg.norm(out.rights[0, slot] - ref.rights[0, slot]) <= 0.01


def test_align_scale_anchoring_matches_reference_scale():
    # reference r = (1, sqrt3); raw = (-1, -sqrt3) must align to (1, sqrt3)
    def mk(r0):
        rights = np.array([r0, [1.0, -S3]])
        return eigen.FrameStack(np.array([[1.0 + 0j, -1.0 + 0j]]), rights[None],
                                np.linalg.inv(rights.T)[None])
    ref = mk([1.0, S3])
    raw = mk([-1.0, -S3])
    out = eigen.align_frames(ref, raw)
    np.testing.assert_allclose(out.rights[0, 0], [1.0, S3], rtol=1e-14)
    np.testing.assert_allclose(out.rights[0, 1], [1.0, -S3], rtol=1e-14)


def test_align_matches_clusters_in_ascending_order():
    # the spectrum moves by more than half its gap between the two points; the
    # nearest-value match would pair the reference's -1 with the raw -3
    sys_ = load_system(json.dumps({"n": 2, "states": ["a", "b"],
                                   "A": [["a", "0"], ["0", "a + 2"]],
                                   "domain": {"a": [-6, 0], "b": [-1, 1]}}))
    ref = eigen.spectrum_at(sys_, 0, 0, np.array([-1.0, 0.0]))
    out = eigen.align_frames(ref, eigen.spectrum_at(sys_, 0, 0, np.array([-5.0, 0.0])))
    np.testing.assert_array_equal(out.values[0], [-5.0, -3.0])
    assert out.mult[0].tolist() == [1, 1]
    np.testing.assert_array_equal(out.rights, ref.rights)


def test_align_mismatched_signature():
    sys2 = barotropic(with_hints=False)
    ref = eigen.spectrum_at(sys2, 0, 0, np.array([1.0, 0.0]))
    tl = threadline()
    raw = eigen.spectrum_at(tl, 0, 0, np.array([1.0, 0.3, 0.0, 0.1]))
    with pytest.raises(MismatchedSignature):
        eigen.align_frames(ref, raw)


# --- analytic frames ---------------------------------------------------------

def test_analytic_frame_barotropic_residuals():
    sys_ = barotropic()
    field = eigen.AnalyticFrameField(sys_)
    for row in sys_.sample_points(SamplePlan(count=100, seed=2)):
        f = field.frame_at(row[0], row[1], row[2:])
        A = sys_.eval_matrix(row[0], row[1], row[2:])
        for slot in range(2):
            res = np.linalg.norm(A @ f.rights[0, slot] - f.values[0, slot].real * f.rights[0, slot])
            assert res <= 1e-12 * (1.0 + np.linalg.norm(A))


def test_analytic_frame_threadline_residuals():
    sys_ = threadline()
    field = eigen.AnalyticFrameField(sys_)
    for row in sys_.sample_points(SamplePlan(count=50, seed=3)):
        f = field.frame_at(row[0], row[1], row[2:])
        A = sys_.eval_matrix(row[0], row[1], row[2:])
        for slot in range(4):
            r = f.rights[0, slot]
            res = np.linalg.norm(A @ r - f.values[0, slot].real * r)
            assert res <= 1e-8 * (1.0 + np.linalg.norm(A)) * (1 + np.linalg.norm(r))


def test_analytic_frame_rejects_wrong_hint():
    doc = json.loads(json.dumps({
        "n": 2, "states": ["rho", "v"], "parameters": {"p0": 1.0},
        "A": [["v", "rho"], ["3*p0*rho^2/rho", "v"]],
        "domain": {"rho": [0.5, 2.0], "v": [-1.0, 1.0]},
        "autovectorHint": {
            "eigenvalues": ["v + sqrt(3*p0)*rho", "v - sqrt(3*p0)*rho"],
            "right": [["1", "0"], ["rho", "-sqrt(3*p0)*rho"]],
        },
    }))
    sys_ = load_system(json.dumps(doc))
    with pytest.raises(HintInconsistent):
        eigen.analytic_frame(sys_, 0.0, 0.0, np.array([1.0, 0.0]))


def test_threadline_hinted_cluster_structure():
    sys_ = threadline()
    f = eigen.analytic_frame(sys_, 0, 0, np.array([1.0, 0.3, 0.0, 0.1]))
    # a hinted stack groups no slots: each is its own cluster, and the slots
    # of one double eigenvalue are split between hint families 1,2 | 3,4
    assert f.mult.tolist() == [[1, 1, 1, 1]]
    assert not f.cplx.any()
    values = f.values[0].real
    assert values[0] == values[2] == pytest.approx(0.3 + 1.0, rel=1e-9)
    assert values[1] == values[3] == pytest.approx(0.3 - 1.0, rel=1e-9)


# --- perturbation identity ---------------------------------------------------

def test_eigenvalue_directional_derivative_matches_fd():
    sys_ = barotropic(with_hints=False)
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(50):
        u = np.array([rng.uniform(0.6, 1.9), rng.uniform(-0.9, 0.9)])
        w = rng.normal(size=2)
        base = eigen.spectrum_at(sys_, 0, 0, u)
        for slot in range(2):
            pred = eigen.eigenvalue_directional_derivative(sys_, 0, 0, u, base, slot, w)
            fp = eigen.align_frames(base, eigen.spectrum_at(sys_, 0, 0, u + h * w))
            fm = eigen.align_frames(base, eigen.spectrum_at(sys_, 0, 0, u - h * w))
            fd = (fp.values[0, slot].real - fm.values[0, slot].real) / (2 * h)
            assert pred == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_eigenvalue_directional_derivative_at_frame_point():
    # A = diag(x*a^2, b + 3): along e1 the first eigenvalue moves at 2*x*a,
    # which is 2 * 0.7 * 0.8 = 1.12 at the frame's own x = 0.7
    doc = {"n": 2, "states": ["a", "b"], "A": [["x*a^2", "0"], ["0", "b + 3"]]}
    sys_ = load_system(json.dumps(doc))
    u = np.array([0.8, 0.2])
    frame = eigen.spectrum_at(sys_, 0.0, 0.7, u)
    got = eigen.eigenvalue_directional_derivative(sys_, 0.0, 0.7, u, frame, 0,
                                                  np.array([1.0, 0.0]))
    assert got == pytest.approx(1.12, rel=1e-12)


def _rights_or_nan(machine, u, reference):
    """The near frame's rights at one state by the public one-state path:
    frame_at without the residual gates for hinted frames, spectrum_at
    aligned to the reference for numeric ones; NaN where that raises."""
    try:
        if machine.field is not None:
            return machine.field.frame_at(0.0, 0.0, u, check=False).rights[0]
        raw = eigen.spectrum_at(machine.sys, 0.0, 0.0, u)
        return eigen.align_frames(reference, raw).rights[0]
    except (IllConditioned, MismatchedSignature, HintInconsistent, DomainError):
        return np.full((len(u), len(u)), np.nan)


@pytest.mark.parametrize("case", ["hinted", "numeric", "real-reference", "complex-reference",
                                  "hinted-gated", "numeric-aligned-gate"])
def test_rights_batch_matches_pointwise_near(case):
    # the batched near frames (the flows' field) agree row by row with the
    # one-state path, gates included: A = [[0, 1], [a, 0]] has real simple,
    # Jordan (a = 0) and complex spectra, so a row shares the reference's
    # signature or has another, which the alignment rejects; on GATED
    # (below) the hints stay finite where sqrt(q) in A does not, and the
    # one-state path rejects those rows.
    # A = [[1, 0], [-tan(p), 2]] has the right vectors (1, tan p) and
    # (0, 1): rescaled at the pivot of the reference at p = 0 their
    # condition number grows like tan(p)^2, past COND_LIMIT near p = pi/2,
    # where the pivot-normalized raw frame is still well conditioned
    from qldecouple.conditions import FrameMachine

    rng = np.random.default_rng(5)
    if case in ("hinted", "numeric"):
        sys_ = barotropic()
        base = np.array([1.0, 0.0])
        U = np.column_stack([rng.uniform(0.5, 2.0, 40), rng.uniform(-1.0, 1.0, 40)])
    elif case == "hinted-gated":
        sys_ = load_system(json.dumps(GATED))
        base = np.array([0.3, 0.25])
        U = np.column_stack([rng.uniform(-0.5, 1.5, 39), rng.uniform(-0.5, 1.0, 39)])
        U = np.vstack([U, [0.3, -0.25]])
    elif case == "numeric-aligned-gate":
        sys_ = load_system(json.dumps({"n": 2, "states": ["p", "q"],
                                       "A": [["1", "0"], ["-sin(p)/cos(p)", "2"]],
                                       "domain": {"p": [0.0, 1.5707963], "q": [-1.0, 1.0]}}))
        base = np.array([0.0, 0.0])
        U = np.column_stack([rng.uniform(0.0, 1.5707963, 38), rng.uniform(-1.0, 1.0, 38)])
        U = np.vstack([U, [1.5707, 0.0], [1.57079, 0.0]])
    else:
        sys_ = load_system(json.dumps({"n": 2, "states": ["a", "b"],
                                       "A": [["0", "1"], ["a", "0"]],
                                       "domain": {"a": [-1.0, 1.0], "b": [0.0, 1.0]}}))
        base = np.array([0.5 if case == "real-reference" else -0.5, 0.5])
        U = np.column_stack([np.append(rng.uniform(-1.0, 1.0, 39), 0.0),
                             rng.uniform(0.0, 1.0, 40)])
    machine = FrameMachine(sys_, "analytic" if case.startswith("hinted") else "numeric")
    reference = machine.base(0.0, 0.0, base)
    got = machine.frames(0, 0, U, reference, lefts=False).rights
    want = np.array([_rights_or_nan(machine, u, reference) for u in U])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    assert np.isfinite(got).all(axis=(1, 2)).sum() >= 15
    if case == "numeric-aligned-gate":
        assert np.isnan(got[-2:]).all()


# diag(p, sqrt(q)) with hints that break one gate each in a known region:
# abs(p) is the wrong eigenvalue for p < 0, abs(q)^0.5 stays finite where
# sqrt(q) in A does not, sqrt(1 - p) is NaN for p > 1 and 0 at p = 1, and the
# left row (1, |x| - x) is wrong for x < 0
GATED = {
    "n": 2, "states": ["p", "q"], "A": [["p", "0"], ["0", "sqrt(q)"]],
    "autovectorHint": {"eigenvalues": ["abs(p)", "abs(q)^0.5"],
                       "right": [["1", "0"], ["0", "sqrt(1 - p)"]],
                       "left": [["1", "abs(x) - x"], ["0", "1"]]},
}
# (x, p, q), the error frame_at raises there and a piece of its message;
# where several gates fail, the first in gate order wins
GATED_ROWS = [
    ((0.5, 0.3, 0.25), None, None),
    ((0.5, 1.5, 0.25), HintInconsistent, "non-finite"),
    ((0.5, 1.5, -0.25), HintInconsistent, "non-finite"),
    ((0.5, 0.3, -0.25), DomainError, "A[1][1]"),
    ((0.5, -0.3, -0.25), DomainError, "A[1][1]"),
    ((0.5, -0.3, 0.25), HintInconsistent, "right vector 0"),
    ((0.5, 1.0, 0.25), IllConditioned, "condition number"),
    ((-0.5, 1.0, 0.25), IllConditioned, "condition number"),
    ((-0.5, 0.3, 0.25), HintInconsistent, "left vector 0"),
    ((0.0, 0.6, 0.81), None, None),
]


def test_hinted_stack_keeps_frame_at_error_per_row():
    from qldecouple.conditions import FrameMachine

    sys_ = load_system(json.dumps(GATED))
    machine = FrameMachine(sys_, "analytic")
    X = np.array([row[0][0] for row in GATED_ROWS])
    U = np.array([row[0][1:] for row in GATED_ROWS])
    t = np.zeros(len(X))
    base = machine.frames(t, X, U)
    for k, ((x, *u), kind, words) in enumerate(GATED_ROWS):
        err = base.errors[k]
        if kind is None:
            assert err is None
            f = machine.field.frame_at(0.0, x, np.array(u))
            for got, want in ((base.values[k], f.values[0]), (base.rights[k], f.rights[0]),
                              (base.lefts[k], f.lefts[0])):
                assert got.tobytes() == want.tobytes()
            continue
        assert type(err) is kind and words in str(err)
        with pytest.raises(kind, match=words.replace("[", r"\[").replace("]", r"\]")):
            machine.field.frame_at(0.0, x, np.array(u))
    # near frames skip the residual gates, so those rows build; with and
    # without lefts each row keeps frame_at(check=False)'s error, message
    # and rights
    unchecked = [None if kind is HintInconsistent and "vector" in words else kind
                 for _, kind, words in GATED_ROWS]
    for lefts in (True, False):
        swept = machine.frames(t, X, U, reference=base, lefts=lefts)
        assert [type(e) if e is not None else None for e in swept.errors] == unchecked
        assert (swept.lefts is None) is not lefts
        for k, (x, *u) in enumerate(row[0] for row in GATED_ROWS):
            try:
                f = machine.field.frame_at(0.0, x, np.array(u), check=False)
            except (HintInconsistent, DomainError, IllConditioned) as err:
                assert type(swept.errors[k]) is type(err)
                assert str(swept.errors[k]) == str(err)
                assert np.isnan(swept.rights[k]).all()
                continue
            assert swept.errors[k] is None
            assert swept.rights[k].tobytes() == f.rights[0].tobytes()
            if lefts:
                assert swept.lefts[k].tobytes() == f.lefts[0].tobytes()


# --- the two stages on a stack against one row at a time ----------------------

def mixed_spectra_system():
    """A = P B P^-1 with P unimodular and
    B = [[a, c, 0, 0], [0, b, 0, 0], [0, 0, s, 1], [0, 0, d, s]], s = 5 + sqrt(x):
    b = a gives a double eigenvalue (semisimple for c = 0, a Jordan pair
    otherwise) and b = a + 1e-9 a nearly equal pair; d > 0 gives a real
    pair around s, d < 0 a complex pair, d = 0 a Jordan pair and d = 1e-14
    a nearly defective one; a = s joins the two blocks' clusters; x < 0
    makes A non-finite (a DomainError)."""
    P = np.array([[1, 0, 0, 0], [2, 1, 0, 0], [-1, 1, 1, 0], [0, 3, -2, 1]]) @ \
        np.array([[1, -1, 2, 0], [0, 1, 1, -1], [0, 0, 1, 2], [0, 0, 0, 1]])
    Pinv = np.rint(np.linalg.inv(P)).astype(int)
    assert (P @ Pinv == np.eye(4)).all()
    B = [["a", "c", "0", "0"], ["0", "b", "0", "0"],
         ["0", "0", "(5 + sqrt(x))", "1"], ["0", "0", "d", "(5 + sqrt(x))"]]
    A = [[" + ".join(f"({P[i, k] * Pinv[m, j]})*{B[k][m]}" for k in range(4) for m in range(4)
                     if P[i, k] * Pinv[m, j] and B[k][m] != "0") or "0" for j in range(4)]
         for i in range(4)]
    return load_system(json.dumps({"n": 4, "states": ["a", "b", "c", "d"], "A": A,
                                   "domain": {s: [-3, 3] for s in "abcd"}}))


MIXED = mixed_spectra_system()
MIXED_ROW = st.tuples(st.sampled_from([-1.0, 0.5, 2.0, 5.0]),
                      st.sampled_from([0.0, 1e-9, 1.5]),
                      st.sampled_from([0.0, 0.7, -1.3]),
                      st.sampled_from([0.0, 0.8, -0.6, 1e-14]),
                      st.sampled_from([0.0, 0.3, -1.0]))


def _one_row(call):
    try:
        return call()
    except (DomainError, IllConditioned, MismatchedSignature) as err:
        return err


def _assert_row_is(stack, k, one):
    """Row k of a stack equals the one-row result `one` (a one-row stack or
    the error it raised) bit for bit."""
    if isinstance(one, Exception):
        err = stack.errors[k]
        assert type(err) is type(one) and str(err) == str(one)
        return
    f = stack.row(k)
    for got, want in ((f.values, one.values), (f.rights, one.rights), (f.lefts, one.lefts)):
        assert got.tobytes() == want.tobytes()
    assert f.kinds.tolist() == one.kinds.tolist() and f.signature(0) == one.signature(0)
    assert f.mult.tolist() == one.mult.tolist() and f.cplx.tolist() == one.cplx.tolist()


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(MIXED_ROW, min_size=1, max_size=8), shift=st.integers(0, 7))
def test_stacked_stages_equal_one_row_calls(rows, shift):
    # every row of one stack, whatever its spectrum, gets the bits, the
    # signature, the kinds and the error of spectrum_at at its state; against
    # references (other rows' frames, so signatures may differ) every row
    # gets what align_frames gives it alone
    a, gap, c, d, x = np.array(rows).T
    U, t = np.column_stack([a, a + gap, c, d]), np.zeros(len(rows))
    base = eigen.spectra(MIXED, t, x, U)
    for k in range(len(rows)):
        one = _one_row(lambda: eigen.spectrum_at(MIXED, 0.0, x[k], U[k]))
        _assert_row_is(base, k, one)
        if isinstance(one, DomainError):
            # a non-finite A: the message eval_matrix gives at the one state
            assert str(one) == str(_one_row(lambda: MIXED.eval_matrix(0.0, x[k], U[k])))
    framed = np.flatnonzero(np.equal(base.errors, None))
    if not framed.size:
        return
    refs = framed[(np.arange(len(rows)) + shift) % framed.size]
    V = U + 1e-6 * np.array([1.0, -1.0, 2.0, 0.5])
    out = eigen.aligned(base.take(refs), eigen.spectra(MIXED, t, x, V, lefts=False))
    for k in range(len(rows)):
        _assert_row_is(out, k, _one_row(lambda: eigen.align_frames(
            base.row(refs[k]), eigen.spectrum_at(MIXED, 0.0, x[k], V[k]))))
