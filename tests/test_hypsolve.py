import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qldecouple import hypsolve, models
from qldecouple.errors import (
    BlowupDetected,
    CFLViolation,
    GridMismatch,
    NonHyperbolic,
    SchemaError,
)
from qldecouple.system import load_system

S3 = math.sqrt(3.0)


def advection(c=1.0):
    doc = {"n": 1, "states": ["u"], "A": [[str(c)]],
           "domain": {"u": [-5, 5], "x": [0, 1]}}
    return load_system(json.dumps(doc))


def burgers_pair(box=4.0, source=None):
    doc = {"n": 2, "states": ["U1", "U2"],
           "A": [["U1", "0"], ["0", "U2"]],
           "domain": {"U1": [-box, box], "U2": [-box, box], "x": [0, 1]}}
    if source is not None:
        doc["g"] = source
    return load_system(json.dumps(doc))


def test_constant_advection_exact_shift_at_unit_cfl():
    sys_ = advection(1.0)
    N = 100
    sol = hypsolve.solve_coupled(sys_, ["sin(2*pi*x)"], N, 0.25,
                                 scheme="upwindCharacteristic", cfl=1.0)
    x = sol.x
    expected = np.sin(2 * np.pi * (x - 0.25))
    np.testing.assert_allclose(sol.data[-1][0], expected, atol=1e-12)


def test_zero_initial_data_stays_zero():
    sys_ = advection(2.0)
    sol = hypsolve.solve_coupled(sys_, ["0"], 50, 0.3)
    np.testing.assert_array_equal(sol.data[-1], np.zeros((1, 50)))


def test_cfl_validation():
    sys_ = advection(1.0)
    with pytest.raises(CFLViolation):
        hypsolve.solve_coupled(sys_, ["0"], 16, 0.1, cfl=1.2)


def test_initial_data_needs_one_expression_per_state():
    sys_ = burgers_pair()
    for initial in (["0"], ["0", "0", "0"]):
        with pytest.raises(SchemaError):
            hypsolve.solve_coupled(sys_, initial, 16, 0.1)


def test_blowup_detection():
    doc = {"n": 1, "states": ["u"], "A": [["u"]], "g": ["u*u"],
           "domain": {"u": [-1e30, 1e30], "x": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    with pytest.raises(BlowupDetected):
        hypsolve.solve_coupled(sys_, ["100"], 16, 1.0)


def test_conservation_of_cell_average_lax_friedrichs():
    sys_ = advection(1.5)
    N = 64
    sol = hypsolve.solve_coupled(sys_, ["sin(2*pi*x) + 0.3"], N, 0.5,
                                 scheme="laxFriedrichs", cfl=0.8)
    means = [float(np.mean(level[0])) for level in sol.data]
    assert abs(means[-1] - means[0]) <= 1e-12 * sol.meta["steps"] + 1e-12


def test_hierarchical_burgers_matches_characteristic_oracle():
    sys_ = burgers_pair()
    N = 400
    t_end = 0.1
    amp = 0.1

    def u0_1(xv):
        return S3 * (1.0 + amp * np.sin(2 * np.pi * xv))

    def u0_2(xv):
        return -S3 * (1.0 + amp * np.sin(2 * np.pi * xv))

    initial = [f"{S3}*(1 + {amp}*sin(2*pi*x))", f"-{S3}*(1 + {amp}*sin(2*pi*x))"]
    sol = hypsolve.solve_hierarchical(sys_, (1, 1), initial, N, t_end,
                                      scheme="upwindCharacteristic")
    for comp, u0 in ((0, u0_1), (1, u0_2)):
        exact = hypsolve.burgers_exact(u0, sol.x, t_end, length=1.0)
        err = float(np.max(np.abs(sol.data[-1][comp] - exact)))
        du0_max = S3 * amp * 2 * np.pi
        assert err <= 5.0 * (1.0 / N) * du0_max


@pytest.mark.parametrize("source", [None, ["-U1", "0.5*U1*U2"]],
                         ids=["homogeneous", "sourced"])
@pytest.mark.parametrize("scheme", hypsolve.SCHEMES)
def test_hierarchical_k1_matches_coupled(scheme, source):
    sys_ = burgers_pair(source=source)
    initial = ["0.5 + 0.1*sin(2*pi*x)", "-0.5 + 0.1*cos(2*pi*x)"]
    a = hypsolve.solve_coupled(sys_, initial, 100, 0.1, scheme=scheme)
    b = hypsolve.solve_hierarchical(sys_, (2,), initial, 100, 0.1, scheme=scheme)
    assert a.meta["steps"] == b.meta["steps"] > 1
    np.testing.assert_array_equal(a.data[-1], b.data[-1])


def test_hierarchical_rejects_non_triangular():
    doc = {"n": 2, "states": ["a", "b"], "A": [["1", "1"], ["0", "2"]],
           "domain": {"a": [-1, 1], "b": [-1, 1], "x": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    with pytest.raises(SchemaError):
        hypsolve.solve_hierarchical(sys_, (1, 1), ["0", "0"], 16, 0.1)


def test_hierarchical_rejects_coupling_away_from_x_zero():
    # the off-block entry vanishes only at x = 0
    doc = {"n": 2, "states": ["a", "b"], "A": [["1", "x"], ["0", "2"]],
           "domain": {"a": [-1, 1], "b": [-1, 1], "x": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    with pytest.raises(SchemaError):
        hypsolve.solve_hierarchical(sys_, (1, 1), ["0", "0"], 16, 0.1)


def test_variable_speed_characteristic_oracle():
    # u_t + x u_x = 0 carries u0 along x e^{-t}: u = u0(x e^{-t})
    doc = {"n": 1, "states": ["u"], "A": [["x"]], "domain": {"u": [-2, 2], "x": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    t_end = 0.5
    errs = []
    for N in (100, 200, 400):
        sol = hypsolve.solve_coupled(sys_, ["sin(2*pi*x)"], N, t_end,
                                     scheme="upwindCharacteristic", boundary="outflow")
        exact = np.sin(2 * np.pi * sol.x * np.exp(-t_end))
        errs.append(float(np.max(np.abs(sol.data[-1][0] - exact))))
    assert errs[0] <= 0.02
    assert 1.8 <= errs[0] / errs[1] <= 2.2
    assert 1.8 <= errs[1] / errs[2] <= 2.2


def test_hierarchical_triple_consumes_lower_blocks():
    # U3 advects with speed (U1 + U2)/2 read from the already-solved blocks
    doc = {"n": 3, "states": ["U1", "U2", "U3"],
           "A": [["U1", "0", "0"], ["0", "U2", "0"], ["0", "0", "(U1 + U2)/2"]],
           "domain": {"U1": [-4, 4], "U2": [-4, 4], "U3": [-4, 4], "x": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    initial = ["1 + 0.1*sin(2*pi*x)", "-1 + 0.1*sin(2*pi*x)", "sin(2*pi*x)"]
    hier = hypsolve.solve_hierarchical(sys_, (1, 1, 1), initial, 200, 0.1)
    coup = hypsolve.solve_coupled(sys_, initial, 200, 0.1)
    # same PDE, different solver paths: first-order agreement
    diff = hypsolve.compare_solutions(hier, coup)
    assert diff[-1]["L1total"] <= 0.05
    # the mean of U1, U2 here is (U1+U2)/2 = 0.1 sin: U3 barely moves while
    # a unit-speed advection would shift it by half a period
    drift = float(np.max(np.abs(hier.data[-1][2] - hier.data[0][2])))
    assert drift <= 0.2


def test_coupled_barotropic_vs_mapped_hierarchical_first_order():
    entry = models.build_barotropic("p0*rho^3")
    sys_ = entry.system
    dec = models.decoupled_system(entry.document)
    H = entry.document["transformHint"]
    initial = ["1 + 0.1*sin(2*pi*x)", "0"]
    initial_U = [f"0 + sqrt(3)*(1 + 0.1*sin(2*pi*x))",
                 f"0 - sqrt(3)*(1 + 0.1*sin(2*pi*x))"]
    # same scheme on both sides commutes exactly with the linear map: that is
    # the conjugation identity, worth pinning on its own
    a = hypsolve.solve_coupled(sys_, initial, 100, 0.1, scheme="upwindCharacteristic")
    b = hypsolve.solve_hierarchical(dec, (1, 1), initial_U, 100, 0.1,
                                    scheme="upwindCharacteristic")
    norms = hypsolve.compare_solutions(a, b, mapping=H, map_states=sys_.states,
                                       parameters=sys_.parameters)
    assert norms[-1]["L1total"] <= 1e-12

    # two different first-order discretizations differ by O(dx): refinement halves it
    errs = []
    for N in (100, 200, 400):
        a = hypsolve.solve_coupled(sys_, initial, N, 0.1, scheme="laxFriedrichs")
        b = hypsolve.solve_hierarchical(dec, (1, 1), initial_U, N, 0.1,
                                        scheme="upwindCharacteristic")
        norms = hypsolve.compare_solutions(a, b, mapping=H,
                                           map_states=sys_.states,
                                           parameters=sys_.parameters)
        errs.append(norms[-1]["L1total"])
    assert 1.5 <= errs[0] / errs[1] <= 3.0
    assert 1.5 <= errs[1] / errs[2] <= 3.0
    assert errs[-1] <= 0.05


def test_compare_mismatch_errors():
    sys_ = advection(1.0)
    a = hypsolve.solve_coupled(sys_, ["sin(2*pi*x)"], 50, 0.1)
    b = hypsolve.solve_coupled(sys_, ["sin(2*pi*x)"], 60, 0.1)
    with pytest.raises(GridMismatch):
        hypsolve.compare_solutions(a, b)


def test_compare_identical_solutions_zero():
    sys_ = advection(1.0)
    a = hypsolve.solve_coupled(sys_, ["sin(2*pi*x)"], 50, 0.1)
    norms = hypsolve.compare_solutions(a, a)
    assert norms[-1]["L1total"] == 0.0
    assert norms[-1]["LinfTotal"] == 0.0


def test_threadline_linear_degeneracy_hook():
    # decay coefficients vanish for the inverse-linear tension law
    from qldecouple import conditions as cond
    from qldecouple.system import SamplePlan

    sys_ = models.build_threadline(k=1.0).system
    machine = cond.FrameMachine(sys_)
    for row in sys_.sample_points(SamplePlan(count=40, seed=9)):
        base = machine.base(row[0], row[1], row[2:])
        for a in range(4):
            val = cond.gradient_condition_residual(sys_, a, a, row[0], row[1],
                                                   row[2:], machine=machine,
                                                   base=base)
            assert abs(val) <= 1e-6


def test_source_term_explicit_euler():
    # u_t = -u with no advection: exact decay
    doc = {"n": 1, "states": ["u"], "A": [["1"]], "g": ["-u"],
           "domain": {"u": [-5, 5], "x": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    sol = hypsolve.solve_coupled(sys_, ["1"], 64, 0.5, scheme="upwindCharacteristic",
                                 cfl=0.5)
    expected = math.exp(-0.5)
    got = float(np.mean(sol.data[-1][0]))
    assert got == pytest.approx(expected, abs=5e-3)


def test_outflow_boundary_constant_state():
    sys_ = advection(1.0)
    sol = hypsolve.solve_coupled(sys_, ["2"], 40, 0.3, boundary="outflow",
                                 scheme="upwindCharacteristic")
    np.testing.assert_allclose(sol.data[-1], 2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# spectral work per step: hyperbolicity and the equalities that keep the bytes
# ---------------------------------------------------------------------------

def constant_system(A):
    names = [f"u{i}" for i in range(len(A))]
    doc = {"n": len(A), "states": names, "A": [[repr(float(v)) for v in row] for row in A],
           "domain": {**{nm: [-2, 2] for nm in names}, "x": [0, 1]}}
    return load_system(json.dumps(doc))


ROTATION = [[0.0, -1.0], [1.0, 0.0]]


@pytest.mark.parametrize("scheme", hypsolve.SCHEMES)
def test_coupled_rotation_is_non_hyperbolic(scheme):
    sys_ = constant_system(ROTATION)
    with pytest.raises(NonHyperbolic):
        hypsolve.solve_coupled(sys_, ["sin(2*pi*x)", "0"], 16, 0.1, scheme=scheme)


@pytest.mark.parametrize("scheme", hypsolve.SCHEMES)
def test_hierarchical_rotation_block_is_non_hyperbolic(scheme):
    # a 2x2 rotation block below a 1x1 block: the blocks are triangular, A is
    # not, so the speeds come from eigvals (Lax-Friedrichs) or a block eig
    sys_ = constant_system([[1.0, 0.0, 0.0], [0.5, 0.0, -1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(NonHyperbolic):
        hypsolve.solve_hierarchical(sys_, (1, 2), ["sin(2*pi*x)", "0", "0"], 16, 0.1,
                                    scheme=scheme)


@pytest.mark.parametrize("n", [2, 3])
def test_nearly_scalar_upwind_cell_is_non_hyperbolic(n):
    # A = [[1 + v, e u], [-e u, 1]] (and a decoupled third row): where v = 0,
    # in the cells right of x = 1/2, it has the complex pair 1 +- i e u,
    # within the speed check's tolerance, and eig's two conjugate
    # eigenvectors have equal real parts, so no real basis exists.  The 2x2
    # pairs path (closed form left of x = 1/2) and the n > 2 eig + inv path
    # both name grid cell 8, the first such cell.
    A = [["1 + v", "1e-20*u", "0"], ["-1e-20*u", "1", "0"], ["0", "0", "2"]]
    states = ["u", "v", "w"][:n]
    sys_ = load_system(json.dumps({"n": n, "states": states,
                                   "A": [row[:n] for row in A[:n]],
                                   "domain": {s: [-1, 1] for s in states}}))
    initial = ["sin(2*pi*x)", "abs(x - 0.5) - (x - 0.5)", "0"][:n]
    with pytest.raises(NonHyperbolic, match="grid cell 8$"):
        hypsolve.solve_coupled(sys_, initial, 16, 0.1, scheme="upwindCharacteristic")


@st.composite
def real_spectrum_stacks(draw, sizes=(2, 4)):
    """A stack of N matrices S D S^-1 with real, possibly repeated, D."""
    m = draw(st.integers(*sizes), label="m")
    N = draw(st.integers(1, 6), label="N")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    D = rng.uniform(-3.0, 3.0, (N, m))
    if draw(st.booleans(), label="repeated"):
        D[:, 1] = D[:, 0]
    S = rng.normal(size=(N, m, m)) + m * np.eye(m)
    return S @ (D[:, :, None] * np.linalg.inv(S))


@settings(max_examples=200, deadline=None)
@given(A=real_spectrum_stacks())
def test_eigvals_equals_eig_eigenvalues(A):
    np.testing.assert_array_equal(np.linalg.eigvals(A), np.linalg.eig(A)[0])


@settings(max_examples=100, deadline=None)
@given(A=real_spectrum_stacks())
def test_one_by_one_eig_is_the_entry_and_one(A):
    a = A[:, :1, :1]
    lam, V = np.linalg.eig(a)
    np.testing.assert_array_equal(lam, a[:, :, 0])
    np.testing.assert_array_equal(V, np.ones_like(a))


@settings(max_examples=200, deadline=None)
@given(A=real_spectrum_stacks(sizes=(2, 6)), equal_diagonal=st.booleans())
def test_lower_triangular_speed_is_the_diagonal(A, equal_diagonal):
    L = np.tril(A)
    if equal_diagonal:
        L[:, np.arange(L.shape[1]), np.arange(L.shape[1])] = L[:, :1, 0]
    lam = np.linalg.eig(L)[0]
    diag = np.diagonal(L, axis1=1, axis2=2)
    np.testing.assert_array_equal(np.max(np.abs(lam), axis=1), np.max(np.abs(diag), axis=1))


def test_nearly_triangular_speed_comes_from_eigvals():
    # _validate_block_triangular accepts the 1e-14 upper entry, but the
    # diagonal is not the spectrum: max|lambda| lies 2.5e-15 above 2
    A = np.array([[1.0, 1e-14], [0.5, 2.0]])
    sys_ = constant_system(A)
    n_cells, cfl = 50, 0.9
    dx = 1.0 / n_cells
    # 25 steps at the diagonal speed 2, so the last step is not cut to fit
    t_end = 25 * cfl * dx / 2.0

    def time_levels(lam_max):
        t, steps = 0.0, 0
        while t < t_end - 1e-14:
            t += min(cfl * dx / lam_max, t_end - t)
            steps += 1
        return [0.0, t], steps

    reference = time_levels(float(np.max(np.abs(np.linalg.eigvals(A)))))
    assert reference != time_levels(2.0)
    sol = hypsolve.solve_hierarchical(sys_, (1, 1), ["sin(2*pi*x)", "cos(2*pi*x)"],
                                      n_cells, t_end, scheme="laxFriedrichs", cfl=cfl)
    assert (sol.times, sol.meta["steps"]) == reference


# ---------------------------------------------------------------------------
# closed-form 2x2 spectra: the speed keeps eigvals' bits, the pairs diagonalize
# ---------------------------------------------------------------------------

def work_counter():
    return {"steps": 0, "closedFormCells": 0, "eigvalsCells": 0, "eigCells": 0}


def spectrum_speed(lam):
    """The CFL speed and hyperbolicity decision of the eigenvalues lam."""
    if np.max(np.abs(lam.imag)) > 1e-8 * (1.0 + np.max(np.abs(lam.real))):
        return NonHyperbolic
    return float(np.max(np.abs(lam.real)))


def eigvals_speed(A):
    """The CFL speed and hyperbolicity decision from eigvals of the whole stack."""
    return spectrum_speed(np.linalg.eigvals(A))


def block_eigvals_speed(A, pattern):
    """The CFL speed and hyperbolicity decision from the union of the
    spectra of the diagonal blocks of sizes `pattern`, each block's eigvals
    taken alone."""
    r = np.cumsum([0, *pattern])
    return spectrum_speed(np.concatenate([np.linalg.eigvals(A[:, a:b, a:b])
                                          for a, b in zip(r[:-1], r[1:])], axis=1))


def closed_form_speed(A, work):
    try:
        return hypsolve._max_speed(A, work)
    except NonHyperbolic:
        return NonHyperbolic


CELL_KINDS = ("real", "triangular", "repeated", "near", "jordan", "complex", "zero")


@st.composite
def two_by_two_stacks(draw, kinds=CELL_KINDS, hide=True, copies=(0, 8)):
    """A stack of 2x2 cells S M S^-1, each of a drawn kind (real, repeated or
    nearly repeated eigenvalues, a Jordan block, a complex pair, all zero; or
    M triangular with S = 1) and scaled by 1e-8, 1 or 1e8; optionally
    followed by copies of its cells a few ulps away, and with one complex
    cell hidden in it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    N = draw(st.integers(1, 12), label="N")
    cells = []
    for _ in range(N):
        kind = draw(st.sampled_from(kinds))
        l1, l2 = rng.uniform(-3.0, 3.0, 2)
        S = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        if kind == "triangular":                        # b = 0 or c = 0 exactly
            M, S = np.array([[l1, 0.0], [rng.normal(), l2]]), np.eye(2)
            M = M.T if draw(st.booleans(), label="upper") else M
        elif kind == "near":
            M = np.diag([l1, l1 + draw(st.sampled_from([1e-12, 1e-6, 1e-3]))])
        else:
            M = {"real": np.diag([l1, l2]),
                 "repeated": np.diag([l1, l1]),
                 "jordan": np.array([[l1, 1.0], [0.0, l1]]),
                 "complex": np.array([[l1, -abs(l2) - 0.1], [abs(l2) + 0.1, l1]]),
                 "zero": np.zeros((2, 2))}[kind]
        cells.append(draw(st.sampled_from([1e-8, 1.0, 1e8])) * (S @ M @ np.linalg.inv(S)))
    A = np.array(cells)
    for _ in range(draw(st.integers(*copies), label="near copies")):
        ulps = rng.integers(-4, 5, A[:N].shape) * np.finfo(float).eps
        A = np.concatenate([A, A[:N] * (1.0 + ulps)])
    if hide and draw(st.booleans(), label="hidden complex cell"):
        k = int(rng.integers(len(A)))
        A[k] = [[1.0, -1e-3], [1e-3, 1.0]]
    return A


@settings(max_examples=400, deadline=None)
@given(A=two_by_two_stacks())
def test_closed_form_speed_keeps_the_eigvals_bits_and_decision(A):
    assert closed_form_speed(A, work_counter()) == eigvals_speed(A)


@settings(max_examples=300, deadline=None)
@given(A=two_by_two_stacks(kinds=("real", "triangular"), hide=False, copies=(8, 8)))
def test_speed_of_cells_a_few_ulps_apart_keeps_the_eigvals_bits(A):
    # the closed form and LAPACK may order near-tied cells differently: the
    # margin keeps the cell holding LAPACK's largest speed among the candidates
    assert closed_form_speed(A, work_counter()) == eigvals_speed(A)


@settings(max_examples=200, deadline=None)
@given(A=two_by_two_stacks(kinds=("real",)))
def test_safely_real_stacks_send_few_cells_to_eigvals(A):
    A = A[:, None].repeat(30, axis=1).reshape(-1, 2, 2) \
        * np.linspace(1.0, 2.0, 30 * len(A))[:, None, None]   # distinct speeds
    if not hypsolve._scaled_2x2(A)[-1].all():
        return
    work = work_counter()
    assert closed_form_speed(A, work) == eigvals_speed(A)
    assert work["eigvalsCells"] < len(A) // 2


@settings(max_examples=300, deadline=None)
@given(A=two_by_two_stacks(kinds=("real", "triangular", "near", "repeated", "jordan", "zero"),
                           hide=False))
def test_closed_form_pairs_diagonalize_each_cell(A):
    safe = hypsolve._scaled_2x2(A)[-1]
    work = work_counter()
    try:
        ref_lam, ref_V, _ = hypsolve._eig_pairs(A[~safe], work_counter())
    except NonHyperbolic:
        # the real part of eig's vectors is singular at a nearly scalar cell
        # with a tiny complex pair: the other cells fail as they did before
        with pytest.raises(NonHyperbolic):
            hypsolve._pairs(A, work)
        return
    lam, V, L = hypsolve._pairs(A, work)
    assert (work["closedFormCells"], work["eigCells"]) == (safe.sum(), (~safe).sum())
    s = np.abs(A).max(axis=(1, 2))[safe]
    rebuilt = V[safe] @ (lam[safe][:, :, None] * L[safe])
    assert np.all(np.abs(rebuilt - A[safe]).max(axis=(1, 2)) <= 1e-10 * s)
    assert np.all(np.abs(L[safe] @ V[safe] - np.eye(2)) <= 1e-10)
    # the other cells keep the eig + inv pairs
    np.testing.assert_array_equal(lam[~safe], ref_lam)
    np.testing.assert_array_equal(V[~safe], ref_V)


def eig_pairs_everywhere(A, work, scaled=None):
    """The reference pairs: eig + inv for every block larger than 1x1."""
    if A.shape[-1] == 1:
        one = np.ones_like(A)
        return A[:, :, 0], one, one
    return hypsolve._eig_pairs(A, work)


@pytest.mark.parametrize("case", ["barotropic", "threadline"])
@pytest.mark.parametrize("boundary", ["periodic", "outflow"])
def test_closed_form_upwind_matches_eig_pairs(monkeypatch, case, boundary):
    if case == "barotropic":
        sys_ = models.build_barotropic("p0*rho^2").system
        sizes, initial, t_end = (2,), ["1 + 0.3*sin(2*pi*x)", "0.2*cos(2*pi*x)"], 0.1
    else:
        sys_ = models.decoupled_system(models.build_threadline(k=1.0).document)
        sizes, t_end = (2, 2), 0.05
        initial = ["1 + 0.05*sin(2*pi*x)", "0.1*cos(2*pi*x)", "0.05*sin(2*pi*x)",
                   "0.02*cos(2*pi*x)"]

    def solve():
        return hypsolve._march(sys_, sizes, initial, 200, t_end, "upwindCharacteristic",
                               0.9, boundary, 0.0)

    got = solve()
    monkeypatch.setattr(hypsolve, "_pairs", eig_pairs_everywhere)
    ref = solve()
    assert got.work["closedFormCells"] == 200 * len(sizes) * got.meta["steps"] > 0
    assert ref.work["closedFormCells"] == 0
    assert (got.times, got.meta) == (ref.times, ref.meta)
    scale = np.abs(ref.data[-1]).max(axis=1, keepdims=True)
    assert np.all(np.abs(got.data[-1] - ref.data[-1]) <= 1e-13 * scale)


@pytest.mark.parametrize("case", ["barotropic", "threadline"])
def test_upwind_scales_each_2x2_block_once_per_step(monkeypatch, case):
    # the speed blocks are the scheme blocks here, so _pairs reuses the
    # scaled stack _max_speed formed, and the solution keeps its bits
    if case == "barotropic":
        sys_, sizes = models.build_barotropic("p0*rho^2").system, (2,)
        initial = ["1 + 0.3*sin(2*pi*x)", "0.2*cos(2*pi*x)"]
    else:
        sys_, sizes = models.decoupled_system(models.build_threadline(k=1.0).document), (2, 2)
        initial = THREADLINE_INITIAL
    scaled = []

    def counted(A):
        scaled.append(len(A))
        return scale(A)

    def solve():
        return hypsolve._march(sys_, sizes, initial, 200, 0.05, "upwindCharacteristic",
                               0.9, "periodic", 0.0)

    scale, pairs = hypsolve._scaled_2x2, hypsolve._pairs
    monkeypatch.setattr(hypsolve, "_scaled_2x2", counted)
    got = solve()
    assert len(scaled) == len(sizes) * got.meta["steps"]
    monkeypatch.setattr(hypsolve, "_pairs", lambda A, work, stack=None: pairs(A, work))
    ref = solve()
    assert len(scaled) == 3 * len(sizes) * got.meta["steps"]
    assert (got.times, got.meta, got.work) == (ref.times, ref.meta, ref.work)
    np.testing.assert_array_equal(got.data[-1], ref.data[-1])


# ---------------------------------------------------------------------------
# CFL speeds from the diagonal blocks of a stack
# ---------------------------------------------------------------------------

@st.composite
def block_diagonal_stacks(draw, pattern):
    """An exactly block-diagonal stack: each 2x2 block drawn by
    two_by_two_stacks, each 1x1 block a scaled entry (zero allowed), each
    3x3 block S D S^-1 with a real or one complex pair D; every block
    truncated to the shortest block's cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    blocks = []
    for m in pattern:
        if m == 2:
            blocks.append(draw(two_by_two_stacks()))
            continue
        N = draw(st.integers(1, 12), label="N")
        scale = draw(st.sampled_from([0.0, 1e-8, 1.0, 1e8]), label="scale")
        if m == 1:
            blocks.append(scale * rng.uniform(-3.0, 3.0, (N, 1, 1)))
            continue
        D = np.zeros((N, m, m))
        D[:, range(m), range(m)] = rng.uniform(-3.0, 3.0, (N, m))
        if draw(st.booleans(), label="complex pair"):
            D[:, 0, 1], D[:, 1, 0] = -0.5, 0.5
        S = rng.normal(size=(N, m, m)) + m * np.eye(m)
        blocks.append(scale * (S @ D @ np.linalg.inv(S)))
    N = min(len(b) for b in blocks)
    A = np.zeros((N, sum(pattern), sum(pattern)))
    r = 0
    for b in blocks:
        m = b.shape[-1]
        A[:, r:r + m, r:r + m] = b[:N]
        r += m
    return A


def block_diagonal(*cells):
    """The one-cell stack with the square arrays `cells` on its diagonal."""
    r = np.cumsum([0] + [len(c) for c in cells])
    A = np.zeros((1, r[-1], r[-1]))
    for c, a, b in zip(cells, r[:-1], r[1:]):
        A[0, a:b, a:b] = c
    return A


# a real 2x2 cell and a lower triangular one whose diagonal holds its
# eigenvalues to the last bits; eigvals of a whole stack where two blocks
# share an eigenvalue may move it by 2 ulp (1.3812797174167786e-08 for the
# [2, 2] and [2, 2, 2] stacks, which are what --hypothesis-seed 9 shrinks
# to), eigvals of each block alone does not
REAL_CELL = np.array([[8.020947885385589e-09, -9.698370640958745e-10],
                      [-4.429468338277947e-09, -1.3616043820266114e-08]])
LOWER_CELL = np.array([[8.217701239287258e-09, 0.0],
                       [1.3040000451301372e-08, -1.3812797174167782e-08]])
LOWER_ENTRIES = [[[v]] for v in np.diag(LOWER_CELL)]
SHARED_EIGENVALUE_STACKS = {
    (2, 2): block_diagonal(LOWER_CELL, REAL_CELL),
    (2, 2, 2): block_diagonal(REAL_CELL, LOWER_CELL, REAL_CELL),
    (1, 1, 2): block_diagonal(*LOWER_ENTRIES, REAL_CELL),
    (2, 1, 1): block_diagonal(REAL_CELL, *LOWER_ENTRIES),
    (1, 1, 1, 1): block_diagonal(*LOWER_ENTRIES, *LOWER_ENTRIES[::-1]),
}
BLOCK_PATTERNS = [[2, 2], [2, 2, 2], [1, 1, 2], [2, 1, 1], [1, 1, 1, 1]]


@pytest.mark.parametrize("pattern", BLOCK_PATTERNS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)  # the pattern's stack in SHARED_EIGENVALUE_STACKS
def test_block_speed_keeps_the_eigvals_bits_and_decision(pattern, data):
    # the bits of the largest |eigvals(block).real| over the diagonal blocks
    A = (SHARED_EIGENVALUE_STACKS[tuple(pattern)] if data is None
         else data.draw(block_diagonal_stacks(pattern)))
    assert closed_form_speed(A, work_counter()) == block_eigvals_speed(A, pattern)


def assert_within_last_bits(got, want):
    if want is NonHyperbolic or got is NonHyperbolic:
        assert got is want
    else:
        assert abs(got - want) <= 1e-11 * want


@pytest.mark.parametrize("pattern", BLOCK_PATTERNS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_speed_lies_within_last_bits_of_whole_stack_eigvals(pattern, data):
    A = data.draw(block_diagonal_stacks(pattern))
    assert_within_last_bits(closed_form_speed(A, work_counter()), eigvals_speed(A))


@pytest.mark.parametrize("pattern", [[1, 3], [2, 3], [3, 3], [1, 2, 1]])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_larger_block_speed_lies_within_last_bits_of_eigvals(pattern, data):
    A = data.draw(block_diagonal_stacks(pattern))
    assert_within_last_bits(closed_form_speed(A, work_counter()), eigvals_speed(A))


def eigvals_max_speed(A, work, scaled=None):
    """The reference CFL speed: eigvals of the whole stack.  It leaves
    `scaled` empty, so _pairs forms its own 2x2 stacks."""
    work["eigvalsCells"] += len(A)
    return hypsolve._real_max(np.linalg.eigvals(A))


THREADLINE_INITIAL = ["1 + 0.05*sin(2*pi*x)", "0.1*cos(2*pi*x)", "0.05*sin(2*pi*x)",
                      "0.02*cos(2*pi*x)"]


@pytest.mark.parametrize("scheme", hypsolve.SCHEMES)
@pytest.mark.parametrize("side", ["coupled", "hierarchical"])
def test_threadline_block_speeds_keep_every_bit(monkeypatch, scheme, side):
    # both threadline systems are exactly block diagonal as (2, 2)
    if side == "coupled":
        sys_, sizes = models.build_threadline(k=1.0).system, (4,)
    else:
        sys_, sizes = models.decoupled_system(models.build_threadline(k=1.0).document), (2, 2)

    def solve():
        return hypsolve._march(sys_, sizes, THREADLINE_INITIAL, 200, 0.05, scheme, 0.9,
                               "periodic", 0.0)

    got = solve()
    monkeypatch.setattr(hypsolve, "_max_speed", eigvals_max_speed)
    ref = solve()
    assert (got.times, got.meta) == (ref.times, ref.meta)
    np.testing.assert_array_equal(got.data[-1], ref.data[-1])
    assert got.work["eigvalsCells"] <= 4 * got.meta["steps"]


@pytest.mark.parametrize("seed", range(4))
def test_block_speeds_below_a_nonzero_lower_block_keep_the_steps(monkeypatch, seed):
    # the lower-left block is not zero: the cut still holds, the bits may move
    tri, _, _ = models.build_synthetic_triangular(seed, 4, (2, 2))
    initial = ["0.5*sin(2*pi*x)", "0.3*cos(2*pi*x)", "0.4*sin(4*pi*x)", "0.2"]

    def solve():
        return hypsolve.solve_hierarchical(tri, (2, 2), initial, 200, 0.05)

    got = solve()
    monkeypatch.setattr(hypsolve, "_max_speed", eigvals_max_speed)
    ref = solve()
    assert got.meta["steps"] == ref.meta["steps"]
    np.testing.assert_allclose(got.times, ref.times, rtol=1e-12, atol=0)
    assert ref.work["eigvalsCells"] == 200 * ref.meta["steps"]
    assert got.work["eigvalsCells"] <= 4 * got.meta["steps"]


def rolled(U, k, boundary):
    """The np.roll reference of _shift."""
    out = np.roll(U, -k, axis=1)
    if boundary == "outflow":
        if k > 0:
            out[:, -k:] = U[:, -1:]
        else:
            out[:, :-k] = U[:, :1]
    return out


@pytest.mark.parametrize("boundary", ["periodic", "outflow"])
@pytest.mark.parametrize("k", [1, -1])
def test_shift_equals_the_roll(k, boundary):
    U = np.random.default_rng(0).normal(size=(3, 7))
    np.testing.assert_array_equal(hypsolve._shift(U, k, boundary), rolled(U, k, boundary))

