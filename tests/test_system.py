import copy
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qldecouple import exprlang as ex
from qldecouple import models
from qldecouple.errors import (
    DomainError,
    NotInverse,
    ParseError,
    SchemaError,
    SingularJacobian,
    UnknownSymbol,
)
from qldecouple.system import (
    SamplePlan,
    conjugate_system,
    load_system,
    unit_samples,
)

BAROTROPIC = {
    "n": 2,
    "states": ["rho", "v"],
    "parameters": {"p0": 1.0},
    "A": [["v", "rho"], ["3*p0*rho^2/rho", "v"]],
    "domain": {"rho": [0.5, 2.0], "v": [-1.0, 1.0]},
}


def barotropic():
    return load_system(json.dumps(BAROTROPIC))


def test_load_and_eval_matrix_cubic_pressure():
    sys_ = barotropic()
    A = sys_.eval_matrix(0.0, 0.0, np.array([1.0, 0.0]))
    np.testing.assert_allclose(A, [[0.0, 1.0], [3.0, 0.0]], atol=1e-14)


def test_load_rejects_ragged_matrix():
    doc = dict(BAROTROPIC)
    doc["A"] = [["v", "rho", "0"], ["3*p0*rho^2/rho", "v", "0"]]
    with pytest.raises(SchemaError):
        load_system(json.dumps(doc))


def test_load_rejects_bad_domain():
    doc = json.loads(json.dumps(BAROTROPIC))
    doc["domain"]["rho"] = [2.0, 0.5]
    with pytest.raises(SchemaError):
        load_system(json.dumps(doc))


@pytest.mark.parametrize("extra", [
    {"normalize": True, "A0": 5},
    {"normalize": True, "A0": [5, 6]},
    {"transformHint": 5},
    {"inverseHint": 5},
    {"autovectorHint": 5},
    {"decoupledHint": 5},
    {"exclude": 5},
    {"partitionHint": {"blocks": 5}},
    {"domain": {"rho": ["low", 2.0], "v": [-1.0, 1.0]}},
    {"parameters": {"p0": "one"}},
    {"independent": 5},
    {"states": [["rho"], ["v"]]},
])
def test_load_rejects_malformed_optional_sections(extra):
    with pytest.raises(SchemaError):
        load_system(json.dumps(dict(BAROTROPIC, **extra)))


def test_permuted_states_give_conjugated_matrix():
    sys_ = barotropic()
    doc = {
        "n": 2,
        "states": ["v", "rho"],
        "parameters": {"p0": 1.0},
        "A": [["v", "3*p0*rho^2/rho"], ["rho", "v"]],
        "domain": {"rho": [0.5, 2.0], "v": [-1.0, 1.0]},
    }
    sys_p = load_system(json.dumps(doc))
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.array([1.3, 0.4])
    A = sys_.eval_matrix(0.0, 0.0, u)
    Ap = sys_p.eval_matrix(0.0, 0.0, P @ u)
    np.testing.assert_allclose(Ap, P @ A @ P.T, atol=1e-14)


def test_zero_matrix_entries():
    doc = {"n": 2, "states": ["a", "b"], "A": [["0", "0"], ["0", "0"]],
           "domain": {"a": [0, 1], "b": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    np.testing.assert_array_equal(sys_.eval_matrix(0, 0, np.array([0.5, 0.5])),
                                  np.zeros((2, 2)))


def test_eval_source_cases():
    doc = {"n": 2, "states": ["rho", "v"], "A": [["v", "rho"], ["rho", "v"]],
           "g": ["0", "-v"], "domain": {"rho": [0.5, 2], "v": [-3, 3]}}
    sys_ = load_system(json.dumps(doc))
    np.testing.assert_allclose(sys_.eval_source(0, 0, np.array([1.0, 2.0])), [0.0, -2.0])

    hom = barotropic()
    assert hom.homogeneous
    np.testing.assert_array_equal(hom.eval_source(0, 0, np.array([1.0, 0.0])), [0.0, 0.0])

    doc = {"n": 2, "states": ["a", "b"], "A": [["0", "0"], ["0", "0"]],
           "g": ["x", "t"], "domain": {"a": [-9, 9], "b": [-9, 9], "t": [0, 9], "x": [0, 9]}}
    nonaut = load_system(json.dumps(doc))
    assert not nonaut.autonomous
    np.testing.assert_allclose(nonaut.eval_source(1.0, 3.0, np.array([0.0, 0.0])), [3.0, 1.0])


def test_domain_error_reports_entry():
    doc = {"n": 1, "states": ["a"], "A": [["1/a"]], "domain": {"a": [-1, 1]}}
    sys_ = load_system(json.dumps(doc))
    with pytest.raises(DomainError) as exc:
        sys_.eval_matrix(0, 0, np.array([0.0]))
    assert "A[0][0]" in str(exc.value)


def test_directional_derivative_constant_matrix():
    doc = {"n": 2, "states": ["a", "b"], "A": [["1", "2"], ["3", "4"]],
           "domain": {"a": [0, 1], "b": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    D = sys_.directional_matrix_derivative(0, 0, np.array([0.5, 0.5]), np.array([1.0, -2.0]))
    np.testing.assert_array_equal(D, np.zeros((2, 2)))


def test_directional_derivative_barotropic_hand_value():
    sys_ = barotropic()
    D = sys_.directional_matrix_derivative(0, 0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(D, [[0.0, 1.0], [3.0, 0.0]], atol=1e-12)


def test_directional_derivative_matches_fd():
    sys_ = barotropic()
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(50):
        u = np.array([rng.uniform(0.6, 1.9), rng.uniform(-0.9, 0.9)])
        w = rng.normal(size=2)
        D = sys_.directional_matrix_derivative(0, 0, u, w)
        fd = (sys_.eval_matrix(0, 0, u + h * w) - sys_.eval_matrix(0, 0, u - h * w)) / (2 * h)
        np.testing.assert_allclose(D, fd, rtol=1e-6, atol=1e-6 * (1 + np.abs(D).max()))


def test_directional_derivative_linear_in_w():
    sys_ = barotropic()
    u = np.array([1.2, -0.3])
    w1 = np.array([0.7, -0.4])
    w2 = np.array([-0.2, 1.1])
    D1 = sys_.directional_matrix_derivative(0, 0, u, w1)
    D2 = sys_.directional_matrix_derivative(0, 0, u, w2)
    D12 = sys_.directional_matrix_derivative(0, 0, u, 2.0 * w1 + 3.0 * w2)
    np.testing.assert_allclose(D12, 2.0 * D1 + 3.0 * D2, rtol=1e-12, atol=1e-12)


def _per_state_reference(sys_):
    """A copy of sys_ whose Jacobian functions are stitched, k-major, from
    one compile_expression(differentiate(entries, state_k)) per state."""
    def stitched(entries, states, order):
        fns = [ex.compile_expression(ex.differentiate(entries, nm), order) for nm in states]
        return lambda *args: tuple(v for fn in fns for v in fn(*args))

    ref = copy.copy(sys_)
    ref._cache = {}
    for key, rows in (("dA", sys_.a), ("dg", [sys_.g]), ("dA0", sys_.a0)):
        if rows is not None:
            entries = [e for row in rows for e in row]
            ref._cache[key] = (stitched(entries, sys_.states, sys_.arg_order),
                               sys_._compiled(key)[1])
    backend = sys_._conjugated
    if backend is not None:
        ref._conjugated = copy.copy(backend)
        ref._conjugated.tri = _per_state_reference(backend.tri)
        ref._conjugated.dj_fn = stitched(backend.j_flat, backend.u_names, backend.order)
    return ref


def _derivative_bits(sys_, t, x, U, W):
    """The bytes of jacobian and both directional derivatives on the stack
    U and at each of its states."""
    out = []
    for args in [(t, x, U, W)] + list(zip(t, x, U, W)):
        dA, dg = sys_.jacobian(*args[:3], source=True)
        out += [dA.tobytes(), dg.tobytes(),
                sys_.directional_matrix_derivative(*args).tobytes(),
                sys_.directional_source_derivative(*args).tobytes()]
    return out


def test_jacobian_contraction_keeps_bits_and_reads_only_nonzero_weights():
    # dA/dc = 1/(2 sqrt(c)) in A[1][1] is not finite at c = 0
    doc = {"n": 3, "states": ["a", "b", "c"],
           "A": [["a*b", "b^2", "0"], ["exp(a)", "sqrt(c)", "a"], ["0", "c*b", "1"]],
           "g": ["sqrt(c)", "a*b", "0"], "domain": {"a": [-1, 1], "b": [-1, 1], "c": [0, 1]}}
    sys_ = load_system(json.dumps(doc))
    rng = np.random.default_rng(5)
    U = np.column_stack([rng.uniform(-1, 1, (12, 2)), rng.uniform(0.1, 1, 12)])
    W = rng.normal(size=U.shape)
    W[::3, 1] = 0.0
    dA, dg = sys_.jacobian(0.0, 0.0, U, source=True)
    for k, (u, w) in enumerate(zip(U, W)):
        one_dA, one_dg = sys_.jacobian(0.0, 0.0, u, source=True)
        assert np.array_equal(one_dA, dA[k]) and np.array_equal(one_dg, dg[k])
        # out += w_k D_k over the nonzero w_k, in increasing k
        want = np.zeros((3, 3))
        for j in np.flatnonzero(w):
            want += w[j] * one_dA[j]
        assert np.array_equal(sys_.directional_matrix_derivative(0.0, 0.0, u, w), want)
    stacked = sys_.directional_matrix_derivative(0.0, 0.0, U, W)
    assert all(np.array_equal(stacked[k], sys_.directional_matrix_derivative(0.0, 0.0, U[k], W[k]))
               for k in range(len(U)))
    # at c = 0 only a direction that moves c reads the non-finite partial
    u = np.array([0.3, -0.4, 0.0])
    assert np.isfinite(sys_.directional_matrix_derivative(0, 0, u, [1.0, 2.0, 0.0])).all()
    assert np.isfinite(sys_.directional_source_derivative(0, 0, u, [1.0, 2.0, 0.0])).all()
    with pytest.raises(DomainError) as err:
        sys_.directional_matrix_derivative(0, 0, u, [1.0, 0.0, 0.5])
    assert str(err.value) == "dA/dc[1][1]: division by zero in 1/(2*sqrt(c))"
    with pytest.raises(DomainError) as err:
        sys_.directional_source_derivative(0, 0, u, [0.0, 0.0, 1.0])
    assert str(err.value) == "dg/dc[0]: division by zero in 1/(2*sqrt(c))"
    # a stack keeps the non-finite row, and the rows beside it their bits
    mixed = sys_.directional_matrix_derivative(0, 0, np.vstack([u, u]), [[1.0, 2.0, 0.0],
                                                                         [0.0, 0.0, 1.0]])
    assert np.isfinite(mixed[0]).all() and not np.isfinite(mixed[1]).all()
    # every partial keeps the bits of one compile per state: through the A0
    # solve and the conjugated chain rule on a copy whose Jacobians are
    # stitched from those compiles, and on plain models against them directly
    _, _, entry = models.build_synthetic_triangular(seed=2, n=3, block_sizes=(2, 1),
                                                    with_source=True)
    emitted = [load_system(json.dumps(models.emit_synthetic_document(1, n, sizes, with_source=True)))
               for n, sizes in ((3, (2, 1)), (4, (2, 2)))]
    assert all(other.a0 is not None and not other.homogeneous for other in emitted)
    for other in [models.build(name).system for name in ("barotropic", "isentropic", "threadline")] \
            + [entry.system] + emitted:
        rows = other.sample_points(SamplePlan(count=12, seed=3))
        t, x, U = rows[:, 0], rows[:, 1], rows[:, 2:]
        W = rng.normal(size=U.shape)
        W[::3, 0] = 0.0
        with np.errstate(all="ignore"):
            assert _derivative_bits(other, t, x, U, W) == \
                _derivative_bits(_per_state_reference(other), t, x, U, W)
            if other.a0 is None and other._conjugated is None:
                dA = other.jacobian(t, x, U)[0]
                for k, nm in enumerate(other.states):
                    fn = ex.compile_expression(ex.differentiate([e for row in other.a for e in row], nm),
                                               other.arg_order)
                    assert dA[:, k].tobytes() == np.array(fn(t, x, *U.T)).T.reshape(dA[:, k].shape).tobytes()


def test_symbol_free_zero_over_zero_partial_is_a_domain_error():
    # the loader keeps a/(1-1) as a/0, whose partials fold to a symbol-free
    # 0/0 along both states; compiled code runs that on Python floats
    doc = {"n": 2, "states": ["a", "b"], "A": [["a/(1-1)", "0"], ["0", "b"]],
           "domain": {"a": [0.5, 1], "b": [0.5, 1]}}
    sys_ = load_system(json.dumps(doc))
    u = np.array([0.7, 0.7])
    for call, where in ((lambda: sys_.jacobian(0, 0, u), "dA/da[0][0]"),
                        (lambda: sys_.directional_matrix_derivative(0, 0, u, [1.0, 0.0]),
                         "dA/da[0][0]"),
                        (lambda: sys_.directional_matrix_derivative(0, 0, u, [0.0, 1.0]),
                         "dA/db[0][0]")):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == f"{where}: division by zero in 0/0"
    # a stack keeps nan, and each row gets its one-state error
    U, W = np.array([[0.7, 0.7], [0.6, 0.9]]), np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.isnan(sys_.jacobian(0, 0, U)[0]).all()
    assert np.isnan(sys_.directional_matrix_derivative(0, 0, U, W)).all()
    errors = np.full(2, None, dtype=object)
    sys_.eval_rows("directional_matrix_derivative", 0.0, 0.0, U, errors, W)
    assert [str(e) for e in errors] == ["dA/da[0][0]: division by zero in 0/0",
                                        "dA/db[0][0]: division by zero in 0/0"]


@pytest.mark.parametrize("form", ["plain", "normalized", "conjugated", "symbolic"])
def test_source_and_matrix_derivatives_match_fd(form):
    tri, _, entry = models.build_synthetic_triangular(seed=2, n=3, block_sizes=(2, 1),
                                                      with_source=True)
    sys_ = {"plain": lambda: tri,
            "normalized": lambda: load_system(json.dumps(NORMALIZED)),
            "conjugated": lambda: entry.system,
            "symbolic": lambda: load_system(json.dumps(
                models.emit_synthetic_document(2, 3, (2, 1), with_source=True)))}[form]()
    rng = np.random.default_rng(7)
    h = 1e-6
    for row in sys_.sample_points(SamplePlan(count=8, seed=2)):
        t, x, u = row[0], row[1], row[2:]
        w = rng.normal(size=sys_.n)
        for method, f in (("directional_matrix_derivative", sys_.eval_matrix),
                          ("directional_source_derivative", sys_.eval_source)):
            got = getattr(sys_, method)(t, x, u, w)
            fd = (f(t, x, u + h * w) - f(t, x, u - h * w)) / (2 * h)
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6 * (1 + np.abs(fd).max()),
                                       err_msg=method)


def test_normalized_loader_diagonal_a0():
    doc = {"n": 2, "states": ["a", "b"], "normalize": True,
           "A0": [["2", "0"], ["0", "4"]],
           "A": [["a", "2"], ["4", "b"]],
           "domain": {"a": [0.5, 1], "b": [0.5, 1]}}
    sys_ = load_system(json.dumps(doc))
    A = sys_.eval_matrix(0, 0, np.array([1.0, 1.0]))
    np.testing.assert_allclose(A, [[0.5, 1.0], [1.0, 0.25]])


def test_normalized_loader_full_a0():
    doc = {"n": 2, "states": ["a", "b"], "normalize": True,
           "A0": [["2", "1"], ["a", "4"]],
           "A": [["a", "2"], ["4", "b"]],
           "domain": {"a": [0.5, 1], "b": [0.5, 1]}}
    sys_ = load_system(json.dumps(doc))
    u = np.array([0.8, 0.6])
    A0 = np.array([[2.0, 1.0], [0.8, 4.0]])
    A1 = np.array([[0.8, 2.0], [4.0, 0.6]])
    np.testing.assert_allclose(sys_.eval_matrix(0, 0, u), np.linalg.solve(A0, A1), rtol=1e-12)
    # derivative agrees with finite differences through the solve
    w = np.array([1.0, 0.5])
    h = 1e-6
    fd = (sys_.eval_matrix(0, 0, u + h * w) - sys_.eval_matrix(0, 0, u - h * w)) / (2 * h)
    np.testing.assert_allclose(sys_.directional_matrix_derivative(0, 0, u, w), fd,
                               rtol=1e-6, atol=1e-8)


# A = diag(1, 2), g = (a, b) under the non-diagonal A0 = [[1, 1], [0, 1]]
NORMALIZED = {"n": 2, "states": ["a", "b"], "normalize": True,
              "A0": [["1", "1"], ["0", "1"]], "A": [["1", "0"], ["0", "2"]],
              "g": ["a", "b"], "domain": {"a": [0, 1], "b": [0, 1]}}


def test_normalized_source_batch_applies_a0():
    sys_ = load_system(json.dumps(NORMALIZED))
    u = np.array([0.3, 0.7])
    g = sys_.eval_source(0, 0, u)
    np.testing.assert_allclose(g, [-0.4, 0.7], rtol=1e-15)
    batch = sys_.eval_source_batch(0.0, 0.0, np.stack([u, u], axis=1))
    np.testing.assert_array_equal(batch, np.stack([g, g], axis=1))


@pytest.mark.parametrize("a0", [[["a", "0"], ["0", "1"]], [["a", "1"], ["0", "1"]]],
                         ids=["diagonal", "full"])
def test_normalized_singular_a0_is_a_domain_error(a0):
    # A0 is singular at a = 0
    sys_ = load_system(json.dumps(dict(NORMALIZED, A0=a0)))
    singular, regular = np.array([0.0, 0.5]), np.array([0.5, 0.5])
    for method in ("eval_matrix", "eval_source"):
        with pytest.raises(DomainError):
            getattr(sys_, method)(0, 0, singular)
    A = sys_.eval_matrix_batch(0.0, 0.0, np.stack([singular, regular], axis=1))
    assert not np.isfinite(A[:, :, 0]).all()
    np.testing.assert_array_equal(A[:, :, 1], sys_.eval_matrix(0, 0, regular))


@functools.lru_cache(maxsize=None)
def _system(kind, seed=0, with_source=False):
    if kind == "normalized":
        doc = dict(NORMALIZED, A0=[["1", "1 + a*b"], ["0", "2 - b"]])
        return load_system(json.dumps(doc))
    if kind == "synthetic":
        _, _, entry = models.build_synthetic_triangular(seed, 3, [2, 1],
                                                        with_source=with_source)
        return entry.system
    return getattr(models, f"build_{kind}")().system


@settings(max_examples=80, deadline=None)
@given(key=st.one_of(st.sampled_from([("barotropic",), ("isentropic",), ("threadline",),
                                      ("normalized",)]),
                     st.tuples(st.just("synthetic"), st.integers(0, 19), st.booleans())),
       data=st.data())
def test_batch_columns_match_pointwise(key, data):
    sys_ = _system(*key)
    names = sys_.arg_order
    lows = np.array([sys_.domain[nm][0] for nm in names])
    highs = np.array([sys_.domain[nm][1] for nm in names])
    count = data.draw(st.integers(1, 6), label="count")
    unit = data.draw(st.lists(st.lists(st.floats(0, 1), min_size=len(names),
                                       max_size=len(names)),
                              min_size=count, max_size=count), label="unit")
    pts = lows + np.array(unit) * (highs - lows)
    t, x, U = pts[0, 0], pts[:, 1], np.ascontiguousarray(pts[:, 2:].T)
    A = sys_.eval_matrix_batch(t, x, U)
    g = sys_.eval_source_batch(t, x, U)
    assert A.shape == (sys_.n, sys_.n, count) and g.shape == (sys_.n, count)
    for i in range(count):
        np.testing.assert_allclose(A[:, :, i], sys_.eval_matrix(t, x[i], U[:, i]),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(g[:, i], sys_.eval_source(t, x[i], U[:, i]),
                                   rtol=1e-13, atol=0)


# --- sampling ----------------------------------------------------------------

def test_sample_reproducibility_and_box():
    sys_ = barotropic()
    plan = SamplePlan(count=100, seed=11)
    s1 = sys_.sample_points(plan)
    s2 = sys_.sample_points(SamplePlan(count=100, seed=11))
    assert np.array_equal(s1, s2)
    assert s1.shape == (100, 4)
    assert np.all(s1[:, 2] >= 0.5) and np.all(s1[:, 2] <= 2.0)
    s3 = sys_.sample_points(SamplePlan(count=100, seed=12))
    assert not np.array_equal(s1, s3)


def test_tensor_grid_strategy():
    pts = unit_samples(SamplePlan(count=9, strategy="tensorGrid"), 2)
    assert pts.shape == (9, 2)
    assert len({tuple(r) for r in pts.tolist()}) == 9


# --- conjugation -------------------------------------------------------------

def _two_burgers():
    doc = {"n": 2, "states": ["U1", "U2"],
           "A": [["U1", "0"], ["0", "U2"]],
           "domain": {"U1": [-6, 6], "U2": [-6, 6]}}
    return load_system(json.dumps(doc))


def _burgers_maps():
    s3 = "1.7320508075688772"
    H = [ex.parse(f"v + {s3}*rho", {"rho", "v"}), ex.parse(f"v - {s3}*rho", {"rho", "v"})]
    h = [ex.parse(f"(U1 - U2)/(2*{s3})", {"U1", "U2"}),
         ex.parse("(U1 + U2)/2", {"U1", "U2"})]
    return H, h


@pytest.mark.parametrize("symbolic", [False, True])
def test_conjugate_reverses_riemann_transform(symbolic):
    tri = _two_burgers()
    H, h = _burgers_maps()
    conj = conjugate_system(tri, h, H, ["rho", "v"],
                            {"rho": (0.5, 2.0), "v": (-1.0, 1.0)}, symbolic=symbolic)
    ref = barotropic()
    for u in ref.sample_points(SamplePlan(count=40, seed=5)):
        A1 = conj.eval_matrix(0, 0, u[2:])
        A2 = ref.eval_matrix(0, 0, u[2:])
        np.testing.assert_allclose(A1, A2, atol=1e-9)


def test_conjugate_directional_derivative_consistency():
    tri = _two_burgers()
    H, h = _burgers_maps()
    conj = conjugate_system(tri, h, H, ["rho", "v"],
                            {"rho": (0.5, 2.0), "v": (-1.0, 1.0)})
    ref = barotropic()
    u = np.array([1.4, 0.2])
    w = np.array([0.3, -1.1])
    np.testing.assert_allclose(conj.directional_matrix_derivative(0, 0, u, w),
                               ref.directional_matrix_derivative(0, 0, u, w),
                               rtol=1e-9, atol=1e-10)


def test_conjugate_batch_evaluates_each_column_at_its_x():
    tri = load_system(json.dumps({"n": 2, "states": ["U1", "U2"],
                                  "A": [["U1 + x", "0"], ["0", "U2"]], "g": ["x*U1", "0"],
                                  "domain": {"U1": [-6, 6], "U2": [-6, 6]}}))
    H, h = _burgers_maps()
    conj = conjugate_system(tri, h, H, ["rho", "v"], {"rho": (0.5, 2.0), "v": (-1.0, 1.0)})
    U = np.array([[1.0, 1.5, 0.7], [0.2, -0.4, 0.0]])
    x = np.array([0.1, 0.5, 0.9])
    A = conj.eval_matrix_batch(0.3, x, U)
    g = conj.eval_source_batch(0.3, x, U)
    for i in range(3):
        np.testing.assert_array_equal(A[:, :, i], conj.eval_matrix(0.3, x[i], U[:, i]))
        np.testing.assert_array_equal(g[:, i], conj.eval_source(0.3, x[i], U[:, i]))
    assert not np.array_equal(A[:, :, 0], conj.eval_matrix(0.3, x[1], U[:, 0]))


def test_conjugate_identity_returns_same_system():
    sys_ = barotropic()
    names = ["rho", "v"]
    ident = [ex.Sym("rho"), ex.Sym("v")]
    conj = conjugate_system(sys_, ident, ident, names,
                            {"rho": (0.5, 2.0), "v": (-1.0, 1.0)})
    u = np.array([1.1, -0.2])
    np.testing.assert_allclose(conj.eval_matrix(0, 0, u), sys_.eval_matrix(0, 0, u),
                               atol=1e-13)


def test_conjugate_constant_linear_similarity():
    doc = {"n": 2, "states": ["U1", "U2"], "A": [["1", "2"], ["0", "3"]],
           "domain": {"U1": [-9, 9], "U2": [-9, 9]}}
    tri = load_system(json.dumps(doc))
    # U = M u with M = [[2, 1], [1, 1]]; u = M^-1 U = [[1, -1], [-1, 2]] U
    H = [ex.parse("2*a + b", {"a", "b"}), ex.parse("a + b", {"a", "b"})]
    h = [ex.parse("U1 - U2", {"U1", "U2"}), ex.parse("-U1 + 2*U2", {"U1", "U2"})]
    conj = conjugate_system(tri, h, H, ["a", "b"], {"a": (-1, 1), "b": (-1, 1)})
    M = np.array([[2.0, 1.0], [1.0, 1.0]])
    T = np.array([[1.0, 2.0], [0.0, 3.0]])
    expected = np.linalg.solve(M, T @ M)
    np.testing.assert_allclose(conj.eval_matrix(0, 0, np.array([0.3, -0.4])), expected,
                               rtol=1e-12)


def test_symbolic_conjugation_applies_triangular_a0():
    # NORMALIZED in (a, b) conjugated by a = p + q^2, b = q
    tri = load_system(json.dumps(NORMALIZED))
    H = [ex.parse("p + q^2", {"p", "q"}), ex.parse("q", {"p", "q"})]
    h = [ex.parse("a - b^2", {"a", "b"}), ex.parse("b", {"a", "b"})]
    numeric, symbolic = (conjugate_system(tri, h, H, ["p", "q"],
                                          {"p": (-1.0, 1.0), "q": (-1.0, 1.0)}, symbolic=s)
                         for s in (False, True))
    u = np.array([0.3, 0.7])
    # J = [[1, 1.4], [0, 1]] and T(H) = A0^-1 A = [[1, -2], [0, 2]] at U = (0.79, 0.7)
    np.testing.assert_allclose(numeric.eval_matrix(0, 0, u), [[1.0, -3.4], [0.0, 2.0]])
    np.testing.assert_allclose(numeric.eval_source(0, 0, u), [-0.89, 0.7])
    w = np.array([0.4, -1.2])
    for u in ([0.3, 0.7], [-0.5, 0.2], [0.9, -0.8]):
        u = np.array(u)
        np.testing.assert_allclose(symbolic.eval_matrix(0, 0, u), numeric.eval_matrix(0, 0, u),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(symbolic.eval_source(0, 0, u), numeric.eval_source(0, 0, u),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(symbolic.directional_matrix_derivative(0, 0, u, w),
                                   numeric.directional_matrix_derivative(0, 0, u, w),
                                   rtol=1e-12, atol=1e-12)


def test_conjugate_rejects_wrong_inverse():
    tri = _two_burgers()
    H, _ = _burgers_maps()
    bad_h = [ex.parse("U1", {"U1", "U2"}), ex.parse("U2", {"U1", "U2"})]
    with pytest.raises(NotInverse):
        conjugate_system(tri, bad_h, H, ["rho", "v"],
                         {"rho": (0.5, 2.0), "v": (-1.0, 1.0)})


def test_conjugate_rejects_singular_jacobian():
    tri = _two_burgers()
    H = [ex.parse("rho + v", {"rho", "v"}), ex.parse("rho + v", {"rho", "v"})]
    h = [ex.parse("U1", {"U1", "U2"}), ex.parse("U2", {"U1", "U2"})]
    with pytest.raises((SingularJacobian, NotInverse)):
        conjugate_system(tri, h, H, ["rho", "v"],
                         {"rho": (0.5, 2.0), "v": (-1.0, 1.0)})


def test_excluded_predicate():
    doc = dict(BAROTROPIC)
    doc["exclude"] = ["1 - rho"]  # exclude rho < 1
    sys_ = load_system(json.dumps(doc))
    assert sys_.is_excluded(0, 0, np.array([0.7, 0.0]))
    assert not sys_.is_excluded(0, 0, np.array([1.5, 0.0]))


def test_is_excluded_on_a_stack_matches_each_row():
    # log(v) is outside its own domain for v < 0 (nan) and -inf at v = 0;
    # 1/(rho - 1) divides by zero at rho = 1; both exclude the state
    doc = dict(BAROTROPIC)
    doc["exclude"] = ["log(v) - 0.5", "1/(rho - 1) - 4"]
    sys_ = load_system(json.dumps(doc))
    rng = np.random.default_rng(11)
    U = np.column_stack([rng.uniform(0.5, 2.0, 200), rng.uniform(-1.0, 1.0, 200)])
    U[:5, 0], U[5:10, 1] = 1.0, 0.0
    t, x = rng.uniform(size=200), rng.uniform(size=200)
    rows = [sys_.is_excluded(t[k], x[k], U[k]) for k in range(200)]
    assert all(type(r) is bool for r in rows)
    assert all(rows[:10]) and 10 < sum(rows) < 190
    mask = sys_.is_excluded(t, x, U)
    assert mask.dtype == bool and mask.tolist() == rows
    assert sys_.is_excluded(0.0, 0.0, U).tolist() == [
        sys_.is_excluded(0.0, 0.0, u) for u in U]
    plain = load_system(json.dumps(BAROTROPIC))
    assert plain.is_excluded(t, x, U).tolist() == [False] * 200
    assert plain.is_excluded(0.0, 0.0, U[0]) is False


def test_symbolic_conjugation_compiles_no_jacobian_derivative(monkeypatch):
    # H and grad H for the inverse check, h for the round trip; the n^3
    # entries of dJ are compiled only when a derivative is taken
    tri = load_system(json.dumps(NORMALIZED))
    H = [ex.parse("p + q^2", {"p", "q"}), ex.parse("q", {"p", "q"})]
    h = [ex.parse("a - b^2", {"a", "b"}), ex.parse("b", {"a", "b"})]
    # the compiled entries, counted through the list API
    compiled = []
    compile_expression = ex.compile_expression
    monkeypatch.setattr(ex, "compile_expression",
                        lambda exprs, order: compiled.extend(exprs)
                        or compile_expression(exprs, order))
    conj = conjugate_system(tri, h, H, ["p", "q"], {"p": (-1.0, 1.0), "q": (-1.0, 1.0)},
                            symbolic=True)
    n = conj.n
    assert len(compiled) == n + n * n + n
    backend = conjugate_system(tri, h, H, ["p", "q"],
                               {"p": (-1.0, 1.0), "q": (-1.0, 1.0)})._conjugated
    assert "dj_fn" not in vars(backend)
    del compiled[:]
    backend._jacobian(0.0, 0.0, np.array([0.3, 0.7]), [0])
    # one function returns dJ/du_k for every k
    assert callable(vars(backend)["dj_fn"]) and n * n * n <= len(compiled)


@pytest.mark.parametrize("tolerance", [-1e-3, float("nan")])
def test_sample_plan_rejects_negative_or_nan_separation_tolerance(tolerance):
    with pytest.raises(SchemaError):
        SamplePlan(separation_tolerance=tolerance)


# ---------------------------------------------------------------------------
# definitions: shared subexpressions of a model document
# ---------------------------------------------------------------------------

def _two_state(definitions, A, **extra):
    return {"n": 2, "states": ["u", "v"], "parameters": {"k": 2.0},
            "definitions": definitions, "A": A,
            "domain": {"u": [0.5, 1.0], "v": [0.5, 1.0]}, **extra}


def _same_nodes(a, b):
    return all(x is y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


@pytest.mark.parametrize("name", ["u", "k", "t", "x", "sqrt", "abs"])
def test_definition_shadowing_a_name_is_a_schema_error(name):
    with pytest.raises(SchemaError, match="shadows"):
        load_system(_two_state({name: "u + 1"}, [["u", "0"], ["0", "v"]]))


@pytest.mark.parametrize("definitions", [{"a": "b + u", "b": "2*v"}, {"a": "a + u"}])
def test_definition_using_a_later_name_is_a_schema_error(definitions):
    with pytest.raises(SchemaError, match="not defined before it"):
        load_system(_two_state(definitions, [["a", "0"], ["0", "v"]]))


def test_definition_errors_name_the_definition():
    with pytest.raises(UnknownSymbol) as unknown:
        load_system(_two_state({"a": "w + u"}, [["a", "0"], ["0", "v"]]))
    assert unknown.value.name == "w"
    with pytest.raises(ParseError, match=r"definitions\['a'\]"):
        load_system(_two_state({"a": "u +"}, [["a", "0"], ["0", "v"]]))
    with pytest.raises(SchemaError, match="not a NAME"):
        load_system(_two_state({"a b": "u"}, [["u", "0"], ["0", "v"]]))
    with pytest.raises(SchemaError, match="definitions must be an object"):
        load_system(_two_state(["u"], [["u", "0"], ["0", "v"]]))


def test_definitions_that_fold_leave_the_graph_of_the_tree_text():
    # z folds to 0, o to 1 (k = 2 is a parameter), c to 6; the entries fold
    # them away exactly as the same text written out does
    definitions = {"z": "0*u", "o": "k - 1", "c": "k*3", "w": "c*u + z", "s": "w*w"}
    graph = load_system(_two_state(definitions, [["z + u*o", "c*v - s"], ["o*v - z", "w^2/o"]],
                                   g=["s", "z"], exclude=["w - 10"]))
    z, o, c = "(0*u)", "(k - 1)", "(k*3)"
    w = f"({c}*u + {z})"
    s = f"({w}*{w})"
    tree = load_system(_two_state({}, [[f"{z} + u*{o}", f"{c}*v - {s}"],
                                       [f"{o}*v - {z}", f"{w}^2/{o}"]],
                                  g=[s, z], exclude=[f"{w} - 10"]))
    assert _same_nodes(graph.a, tree.a)
    assert _same_nodes([graph.g, graph.exclude], [tree.g, tree.exclude])
    assert graph.a[1][0] is ex.Sym("v") and graph.g[1] == ex.Const(0.0)
    # a fold out of range raises as the written-out text does
    big = {"c": "1e200"}
    for doc in (_two_state(big, [["c*c*u", "0"], ["0", "v"]]),
                _two_state({}, [["1e200*1e200*u", "0"], ["0", "v"]])):
        with pytest.raises(ParseError, match=r"constant out of range: 1e\+200\*1e\+200"):
            load_system(doc)


def test_documents_without_definitions_load_as_before():
    plain = load_system(json.dumps(BAROTROPIC))
    empty = load_system(json.dumps({**BAROTROPIC, "definitions": {}}))
    assert _same_nodes(plain.a, empty.a) and _same_nodes([plain.g], [empty.g])
    # definitions reach A, A0, g, exclude and the autovector hint only
    with pytest.raises(UnknownSymbol):
        load_system(_two_state({"a": "u"}, [["u", "0"], ["0", "v"]], transformHint=["a", "v"]))
