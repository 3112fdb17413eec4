import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qldecouple import exprlang as ex
from qldecouple.errors import DomainError, ParseError, UnknownSymbol
from qldecouple.system import load_system


def test_parse_riemann_invariant_shape():
    e = ex.parse("v + sqrt(3*p0)*rho", {"v", "rho", "p0"})
    assert isinstance(e, ex.Bin) and e.op == "+"
    assert isinstance(e.b, ex.Bin) and e.b.op == "*"
    assert isinstance(e.b.a, ex.Un) and e.b.a.op == "sqrt"


def test_parse_literal_with_empty_symbols():
    e = ex.parse("1", set())
    assert e == ex.Const(1.0)


def test_parse_undeclared_name():
    with pytest.raises(UnknownSymbol) as exc:
        ex.parse("v + w", {"v", "rho"})
    assert exc.value.name == "w"


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as exc:
        ex.parse("v + * rho", {"v", "rho"})
    assert exc.value.position is not None


def test_parse_precedence():
    assert ex.evaluate(ex.parse("1+2*3^2", set()), {}) == 19.0
    assert ex.evaluate(ex.parse("-2^2", set()), {}) == -4.0
    assert ex.evaluate(ex.parse("(-2)^2", set()), {}) == 4.0
    assert ex.evaluate(ex.parse("2^-1", set()), {}) == 0.5
    assert ex.evaluate(ex.parse("2^3^2", set()), {}) == 64.0  # left-associative
    assert ex.evaluate(ex.parse("8-3-2", set()), {}) == 3.0


def test_parse_rejects_symbolic_exponent():
    with pytest.raises(ParseError):
        ex.parse("rho^v", {"rho", "v"})


def test_eval_cubic_pressure():
    e = ex.parse("p0*rho^3", {"p0", "rho"})
    assert ex.evaluate(e, {"p0": 1.0, "rho": 2.0}) == 8.0


def test_eval_sqrt_value():
    e = ex.parse("v + sqrt(3*p0)*rho", {"v", "rho", "p0"})
    got = ex.evaluate(e, {"v": 0.0, "p0": 1.0, "rho": 1.0})
    assert got == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_eval_division_by_zero():
    e = ex.parse("1/rho", {"rho"})
    with pytest.raises(DomainError):
        ex.evaluate(e, {"rho": 0.0})


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        ex.evaluate(ex.parse("sqrt(rho)", {"rho"}), {"rho": -1.0})
    with pytest.raises(DomainError):
        ex.evaluate(ex.parse("log(rho)", {"rho"}), {"rho": 0.0})
    with pytest.raises(DomainError):
        ex.evaluate(ex.parse("rho^0.5", {"rho"}), {"rho": -2.0})


def test_diff_power_rule():
    e = ex.parse("p0*rho^3", {"p0", "rho"})
    d = ex.differentiate(e, "rho")
    for rho in (0.5, 1.0, 2.0, 3.5):
        assert ex.evaluate(d, {"p0": 1.5, "rho": rho}) == pytest.approx(4.5 * rho**2, rel=1e-14)


def test_diff_constant_is_zero():
    assert ex.differentiate(ex.Const(7.0), "x") == ex.Const(0.0)
    assert ex.differentiate(ex.parse("3*4", set()), "x") == ex.Const(0.0)


def test_diff_abs_sign_and_domain_error_at_zero():
    d = ex.differentiate(ex.parse("abs(x)", {"x"}), "x")
    assert ex.evaluate(d, {"x": 2.0}) == 1.0
    assert ex.evaluate(d, {"x": -2.0}) == -1.0
    with pytest.raises(DomainError):
        ex.evaluate(d, {"x": 0.0})


# --- random AST machinery ---------------------------------------------------

SYMS = ("x", "y", "z")


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.28:
        if rng.random() < 0.55:
            return ex.Sym(SYMS[rng.integers(0, len(SYMS))])
        return ex.Const(round(float(rng.uniform(0.2, 3.0)), 4))
    kind = rng.random()
    if kind < 0.62:
        op = ("+", "-", "*", "/")[rng.integers(0, 4)]
        return ex.Bin(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind < 0.74:
        expo = (2.0, 3.0, 0.5, -1.0, 1.5)[rng.integers(0, 5)]
        return ex.Bin("^", _random_ast(rng, depth - 1), ex.Const(expo))
    op = ("sqrt", "exp", "log", "sin", "cos", "abs")[rng.integers(0, 6)]
    return ex.Un(op, _random_ast(rng, depth - 1))


def _safe_case(rng, need_fd=False):
    """Random AST and binding where eval (and FD stencil) stays in-domain."""
    h = 1e-6
    while True:
        e = _random_ast(rng, int(rng.integers(1, 7)))
        bind = {s: float(rng.uniform(0.3, 2.0)) for s in SYMS}
        try:
            v = ex.evaluate(e, bind)
            if not np.isfinite(v) or abs(v) > 1e6:
                continue
            d = ex.differentiate(e, "x")
            dv = ex.evaluate(d, bind)
            if not np.isfinite(dv) or abs(dv) > 1e5:
                continue
            if need_fd:
                for s in (-2, -1, 1, 2):
                    b2 = dict(bind)
                    b2["x"] += s * h
                    if abs(ex.evaluate(e, b2)) > 1e7:
                        raise DomainError("fd stencil blew up")
            return e, d, bind
        except DomainError:
            continue


def test_diff_matches_central_fd_on_random_asts():
    rng = np.random.default_rng(1234)
    h = 1e-6
    for _ in range(100):
        e, d, bind = _safe_case(rng, need_fd=True)
        bp, bm = dict(bind), dict(bind)
        bp["x"] += h
        bm["x"] -= h
        fd = (ex.evaluate(e, bp) - ex.evaluate(e, bm)) / (2 * h)
        dv = ex.evaluate(d, bind)
        assert abs(dv - fd) <= 1e-6 * (1.0 + abs(dv))


def test_print_parse_round_trip():
    rng = np.random.default_rng(99)
    for _ in range(100):
        e, _, _ = _safe_case(rng)
        text = ex.to_string(e)
        e2 = ex.parse(text, set(SYMS))
        for _ in range(5):
            bind = {s: float(rng.uniform(0.3, 2.0)) for s in SYMS}
            try:
                v1 = ex.evaluate(e, bind)
            except DomainError:
                continue
            v2 = ex.evaluate(e2, bind)
            assert abs(v1 - v2) <= 1e-12 * (1.0 + abs(v1))


def test_diff_is_linear():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a, _, _ = _safe_case(rng)
        b, _, _ = _safe_case(rng)
        ds = ex.differentiate(ex.Bin("+", a, b), "x")
        da = ex.differentiate(a, "x")
        db = ex.differentiate(b, "x")
        for _ in range(3):
            bind = {s: float(rng.uniform(0.4, 1.8)) for s in SYMS}
            try:
                lhs = ex.evaluate(ds, bind)
                rhs = ex.evaluate(da, bind) + ex.evaluate(db, bind)
            except DomainError:
                continue
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_compiled_matches_interpreted():
    rng = np.random.default_rng(55)
    for _ in range(50):
        e, _, bind = _safe_case(rng)
        fn = ex.compile_expression(e, list(SYMS))
        v1 = ex.evaluate(e, bind)
        v2 = fn(*[bind[s] for s in SYMS])
        assert v2 == pytest.approx(v1, rel=1e-14, abs=1e-14)
        # array path broadcasts
        arr = fn(*[np.full(4, bind[s]) for s in SYMS])
        assert arr.shape == (4,)
        np.testing.assert_allclose(arr, v1, rtol=1e-14)


def test_substitute_matches_binding():
    e = ex.parse("v + sqrt(3*p0)*rho", {"v", "rho", "p0"})
    s = ex.substitute(e, {"p0": 1.0})
    assert "p0" not in ex.free_symbols(s)
    assert ex.evaluate(s, {"v": 0.2, "rho": 1.3}) == pytest.approx(
        ex.evaluate(e, {"v": 0.2, "rho": 1.3, "p0": 1.0}), rel=1e-15)


def test_operator_overloads_fold():
    x = ex.Sym("x")
    assert (x * 0) == ex.Const(0.0)
    assert (x + 0) is x
    assert (x * 1) is x
    assert isinstance(x**2, ex.Bin)
    assert ex.evaluate(-(x - 3), {"x": 1.0}) == 2.0


def test_scientific_notation_and_whitespace():
    assert ex.evaluate(ex.parse("1e-3 + 2E2", set()), {}) == pytest.approx(200.001)
    assert ex.evaluate(ex.parse("  1.5 *\t( 2 + 2 ) ", set()), {}) == 6.0


def test_overflowing_literal_is_parse_error():
    # a literal that rounds to inf used to parse to Const(inf), which neither
    # compiles (the generated code names `inf`) nor prints (`_fmt_const`)
    for text, at in (("1e400*u", 0), ("u + 2*1E999", 6)):
        with pytest.raises(ParseError) as exc:
            ex.parse(text, {"u"})
        assert exc.value.position == at
    e = ex.parse("1.7976931348623157e308*u", {"u"})
    assert ex.parse(ex.to_string(e), {"u"}) == e
    assert ex.compile_expression(e, ["u"])(1.0) == 1.7976931348623157e308


def test_overflowing_constant_exponent_is_parse_error():
    # the parser folds a constant exponent with math.pow and math.exp, which
    # raise OverflowError instead of returning inf
    for text, at in (("u^(10^400)", 1), ("2*u^exp(1000)", 3), ("u^-(2^2000)", 1)):
        with pytest.raises(ParseError) as exc:
            ex.parse(text, {"u"})
        assert exc.value.position == at
    assert ex.parse("u^(2^10)", {"u"}) == ex.parse("u^1024", {"u"})


def test_overflowing_folded_constant_is_parse_error():
    # substitute folds constant subtrees with math.pow and math.exp, which
    # raise OverflowError instead of returning inf
    for text in ("2^2000*u", "exp(1000)*u", "u + 3*(1e300^2)", "(2^10)^200*u",
                 "1e200*1e200*u", "1e308*10-1e308*10+u", "u*((0-1e200)*1e200)"):
        with pytest.raises(ParseError, match="constant out of range"):
            ex.substitute(ex.parse(text, {"u"}), {})
    with pytest.raises(ParseError, match=r"constant out of range: exp\(1000\)"):
        ex.substitute(ex.parse("exp(a)*u", {"a", "u"}), {"a": 1000.0})
    for entry in ("2^2000*u", "1e200*1e200*u"):
        with pytest.raises(ParseError):
            load_system(json.dumps({"n": 1, "states": ["u"], "A": [[entry]],
                                    "domain": {"u": [0.5, 1]}}))
    # folds that stay finite, or fail on the domain, are unchanged
    assert ex.substitute(ex.parse("2^10*u", {"u"}), {}) == ex.parse("1024*u", {"u"})
    assert ex.substitute(ex.parse("exp(709)*u", {"u"}), {}).a.value == math.exp(709)
    assert ex.to_string(ex.substitute(ex.parse("log(0-1)*u", {"u"}), {})) == "log(-1)*u"


def test_folded_non_finite_constants_compile():
    # constant folding can still make inf and nan, which compile to their values
    u = ex.parse("u", {"u"})
    big = ex.Const(1e300) * ex.Const(1e300)
    fn = ex.compile_expression([u * big, big - big, u - big], ["u"])
    vals = fn(np.array([1.0, -1.0]))
    np.testing.assert_array_equal(np.stack(vals), [[np.inf, -np.inf], [np.nan, np.nan],
                                                   [-np.inf, -np.inf]])


def test_nested_functions():
    e = ex.parse("sqrt(exp(log(abs(-4))))", set())
    assert ex.evaluate(e, {}) == pytest.approx(2.0, rel=1e-15)


def test_reserved_function_name_not_a_symbol():
    with pytest.raises(ParseError):
        ex.parse("sqrt + 1", {"sqrt"})


def test_load_rejects_reserved_and_duplicate_states():
    import json as _json

    from qldecouple.errors import SchemaError
    from qldecouple.system import load_system

    with pytest.raises(SchemaError):
        load_system(_json.dumps({"n": 2, "states": ["t", "u"],
                                 "A": [["0", "0"], ["0", "0"]],
                                 "domain": {"t": [0, 1], "u": [0, 1]}}))
    with pytest.raises(SchemaError):
        load_system(_json.dumps({"n": 2, "states": ["u", "u"],
                                 "A": [["0", "0"], ["0", "0"]],
                                 "domain": {"u": [0, 1]}}))
    with pytest.raises(SchemaError):
        load_system(_json.dumps({"n": 1, "states": ["u"], "normalize": True,
                                 "A": [["1"]], "domain": {"u": [0, 1]}}))


# ---------------------------------------------------------------------------
# properties over generated expression trees
# ---------------------------------------------------------------------------

LEAVES = st.one_of(st.sampled_from([ex.Sym("x"), ex.Sym("y")]),
                   st.integers(-3, 3).map(lambda k: ex.Const(float(k))),
                   st.floats(-3.0, 3.0).map(ex.Const))


def _trees(unary, binary, exponents, extend=lambda children: st.nothing()):
    def grow(children):
        return st.one_of(
            st.builds(ex.Un, st.sampled_from(unary), children),
            st.builds(ex.Bin, st.sampled_from(binary), children, children),
            st.builds(lambda a, c: ex.Bin("^", a, ex.Const(c)), children,
                      st.sampled_from(exponents)),
            extend(children))
    return st.recursive(LEAVES, grow, max_leaves=10)


ALL_TREES = _trees(["neg", "sqrt", "exp", "log", "sin", "cos", "abs"],
                   ["+", "-", "*", "/"], [2.0, 3.0, 0.5, -1.0, -2.5])
# smooth everywhere: divisions only by 2 + cos(.) >= 1
SMOOTH_TREES = _trees(["neg", "exp", "sin", "cos"], ["+", "-", "*"], [2.0, 3.0],
                      lambda c: st.builds(lambda a, b: ex.Bin("/", a, ex.Bin(
                          "+", ex.Const(2.0), ex.Un("cos", b))), c, c))
POINTS = st.fixed_dictionaries({"x": st.floats(-2.0, 2.0), "y": st.floats(-2.0, 2.0)})


def _value(e, point):
    """The finite value of e at point, or None outside its domain."""
    try:
        v = ex.evaluate(e, point)
    except (DomainError, OverflowError, ValueError):
        return None
    return v if math.isfinite(v) else None


@settings(max_examples=300, deadline=None)
@given(e=ALL_TREES, point=POINTS)
def test_to_string_parse_round_trip_keeps_values(e, point):
    v = _value(e, point)
    assume(v is not None)
    assert _value(ex.parse(ex.to_string(e), {"x", "y"}), point) == v


def _dual(e, point):
    """(value, d/dx) of a SMOOTH_TREES expression at point in forward-mode
    dual numbers: exact up to rounding, with no step to truncate."""
    if isinstance(e, ex.Const):
        return e.value, 0.0
    if isinstance(e, ex.Sym):
        return point[e.name], float(e.name == "x")
    if isinstance(e, ex.Un):
        v, dv = _dual(e.a, point)
        if e.op == "neg":
            return -v, -dv
        if e.op == "exp":
            return math.exp(v), math.exp(v) * dv
        if e.op == "sin":
            return math.sin(v), math.cos(v) * dv
        return math.cos(v), -math.sin(v) * dv
    (a, da), (b, db) = _dual(e.a, point), _dual(e.b, point)
    if e.op == "+":
        return a + b, da + db
    if e.op == "-":
        return a - b, da - db
    if e.op == "*":
        return a * b, da * b + a * db
    if e.op == "^":
        # the exponents of SMOOTH_TREES are the constants 2 and 3
        return a ** b, b * a ** (b - 1.0) * da
    return a / b, (da * b - a * db) / (b * b)


# a central difference with h = 1e-6 read -5708.20 here, 6e-4 off the exact
# -5711.60
@example(e=ex.parse("x / (2 + cos(exp(exp(x) * exp(x))))", {"x", "y"}),
         point={"x": 1.0, "y": 0.0})
@settings(max_examples=300, deadline=None)
@given(e=SMOOTH_TREES, point=POINTS)
def test_differentiate_matches_forward_mode_dual_numbers(e, point):
    f, d = _value(e, point), _value(ex.differentiate(e, "x"), point)
    assume(None not in (f, d))
    try:
        reference = _dual(e, point)[1]
    except OverflowError:
        assume(False)
    assume(math.isfinite(reference))
    assert abs(d - reference) <= 1e-5 * (1.0 + abs(f) + abs(d))


def _rebuild(e):
    """e built again node by node."""
    if isinstance(e, ex.Un):
        return ex.Un(e.op, _rebuild(e.a))
    if isinstance(e, ex.Bin):
        return ex.Bin(e.op, _rebuild(e.a), _rebuild(e.b))
    return type(e)(*(getattr(e, name) for name in e.__slots__))


def _sharing_entries(trees, shared):
    """Entries that share subtrees: the trees, their pairwise sums and
    products, quotients by 0.0 and -0.0, and the two zeros.  With `shared`
    every use of a tree is the one object, else each use is built again."""
    use = (lambda e: e) if shared else _rebuild
    zeros = [ex.Const(0.0), ex.Const(-0.0)]
    entries = [use(e) for e in trees]
    entries += [ex.Bin(op, use(a), use(b)) for a in trees for b in trees for op in "+*"]
    return entries + [ex.Bin("/", use(trees[0]), z) for z in zeros] + zeros


def _outcome(fn, args):
    """The bytes of each value fn returns, or the type of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return [np.asarray(v).tobytes() for v in fn(*args)]
    except ArithmeticError as err:  # symbol-free subtrees run on Python floats
        return type(err)


@settings(max_examples=200, deadline=None)
@given(trees=st.lists(ALL_TREES, min_size=1, max_size=3), shared=st.booleans(),
       point=POINTS)
def test_list_compile_returns_the_bits_of_each_entry_alone(trees, shared, point):
    entries = _sharing_entries(trees, shared)
    # interning: a tree built again is the same object, whichever zero it holds
    assert all(_rebuild(e) is e for e in entries)
    assert ex.Const(0.0) is not ex.Const(-0.0)
    order = ["x", "y"]
    together = ex.compile_expression(entries, order)
    alone = [ex.compile_expression(e, order) for e in entries]
    one = [np.float64(point["x"]), np.float64(point["y"])]
    stack = [np.array([point["x"], -point["y"], 0.0, -0.0]),
             np.array([point["y"], 0.0, -0.0, math.inf])]
    for args in (one, stack):
        each = [_outcome(lambda *a, fn=fn: [fn(*a)], args) for fn in alone]
        raised = [o for o in each if isinstance(o, type)]
        want = raised[0] if raised else [o[0] for o in each]
        assert _outcome(together, args) == want


@settings(max_examples=200, deadline=None)
@given(trees=st.lists(ALL_TREES, min_size=1, max_size=3), shared=st.booleans())
def test_list_differentiate_matches_each_entry_alone(trees, shared):
    # x and y last: their derivatives tell the two variables apart
    entries = _sharing_entries(trees, shared) + [ex.Sym("x"), ex.Sym("y")]

    def printed(derivatives):
        try:
            return [ex.to_string(d) for d in derivatives()]
        except (DomainError, OverflowError) as err:  # folding a constant power
            return type(err)

    for var in ("x", "y"):
        each = [printed(lambda e=e: [ex.differentiate(e, var)]) for e in entries]
        raised = [o for o in each if isinstance(o, type)]
        want = raised[0] if raised else [s for [s] in each]
        assert printed(lambda: ex.differentiate(entries, var)) == want
        assert raised or want[-2:] == (["1", "0"] if var == "x" else ["0", "1"])
