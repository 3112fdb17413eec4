import functools
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

    def nodes(derivatives):
        try:
            return derivatives()
        except (DomainError, OverflowError) as err:
            return type(err)

    for var in ("x", "y", ["x", "y"]):
        if not isinstance(var, str):
            # a list of names: one walk whose partials are the very nodes of
            # the walks along each name, or the error those raise
            each = [nodes(lambda nm=nm: ex.differentiate(entries, nm)) for nm in var]
            raised = [o for o in each if isinstance(o, type)]
            assert nodes(lambda: ex.differentiate(entries, var)) == (raised[0] if raised else each)
            continue
        each = [printed(lambda e=e: [ex.differentiate(e, var)]) for e in entries]
        raised = [o for o in each if isinstance(o, type)]
        want = raised[0] if raised else [s for [s] in each]
        assert printed(lambda: ex.differentiate(entries, var)) == want
        assert raised or want[-2:] == (["1", "0"] if var == "x" else ["0", "1"])


# ---------------------------------------------------------------------------
# shared graphs: generated code and the memoized walks
# ---------------------------------------------------------------------------

UNARY = ("neg", "sqrt", "exp", "log", "sin", "cos", "abs")
GRAPH_CONSTANTS = [ex.Const(v) for v in (0.0, -0.0, 1.0, 2.5, -3.0, 1e200)]


@st.composite
def shared_graphs(draw):
    """Entries of a random graph in which each new node applies an operator
    to nodes built before it, so subtrees are shared within and across the
    entries.  Every inner node reads x or y; constants sit at the leaves and
    in exponents."""
    nodes = [ex.Sym("x"), ex.Sym("y")]
    for _ in range(draw(st.integers(1, 12))):
        a = draw(st.sampled_from(nodes))
        kind = draw(st.sampled_from(["un", "bin", "pow"]))
        if kind == "un":
            node = ex.Un(draw(st.sampled_from(UNARY)), a)
        elif kind == "pow":
            node = ex.Bin("^", a, ex.Const(draw(st.sampled_from([2.0, 3.0, 0.5, -1.0, -2.5]))))
        else:
            b = draw(st.sampled_from(nodes + GRAPH_CONSTANTS))
            if draw(st.booleans()):
                a, b = b, a
            node = ex.Bin(draw(st.sampled_from("+-*/")), a, b)
        nodes.append(node)
    return draw(st.lists(st.sampled_from(nodes[2:]), min_size=1, max_size=4))


_NUMPY_UN = {"neg": np.negative, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
             "sin": np.sin, "cos": np.cos, "abs": np.abs}


def _node_by_node(e, args):
    """e evaluated one node at a time with the numpy operations of the
    generated code, plus the 0*(x + y) it adds to give each entry the shape
    of the arguments."""
    def walk(e):
        if isinstance(e, ex.Const):
            return e.value
        if isinstance(e, ex.Sym):
            return args[e.name]
        if isinstance(e, ex.Un):
            return _NUMPY_UN[e.op](walk(e.a))
        a, b = walk(e.a), walk(e.b)
        return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                "/": lambda: a / b, "^": lambda: ex._pow(a, b)}[e.op]()
    return walk(e) + 0.0 * (args["x"] + args["y"])


@settings(max_examples=200, deadline=None)
@given(entries=shared_graphs(), point=POINTS)
def test_compiled_entries_equal_a_node_by_node_evaluation(entries, point):
    fn = ex.compile_expression(entries, ["x", "y"])
    one = {"x": np.float64(point["x"]), "y": np.float64(point["y"])}
    stack = {"x": np.array([point["x"], -point["y"], 0.0, 2.0]),
             "y": np.array([point["y"], 0.0, -0.0, math.inf])}
    with np.errstate(all="ignore"):
        for args in (one, stack):
            got = fn(args["x"], args["y"])
            assert [np.asarray(v).tobytes() for v in got] == \
                [np.asarray(_node_by_node(e, args)).tobytes() for e in entries]
        at_one = fn(one["x"], one["y"])
    # evaluate is a bit-for-bit reference for compiled entries
    zero = 0.0 * (point["x"] + point["y"])
    for e, v in zip(entries, at_one):
        try:
            want = ex.evaluate(e, point)
        except (DomainError, OverflowError, ValueError):
            continue
        assert np.float64(want + zero).tobytes() == np.asarray(v).tobytes()


def test_evaluate_and_folds_run_numpys_exp_and_log():
    # math.exp and math.log differ from numpy's exp and log in the last bit
    # at some arguments (math.log near 1); evaluate and the constant folds
    # give compiled code's bits, and keep math's errors
    rng = np.random.default_rng(11)
    u = ex.Sym("u")
    for op, args in (("exp", rng.uniform(-745.0, 709.0, 4000)),
                     ("log", rng.uniform(0.25, 4.0, 4000))):
        e = ex.Un(op, u)
        stack = ex.compile_expression(e, ["u"])(args)
        for v, want in zip(args.tolist(), stack):
            assert ex.evaluate(e, {"u": v}) == want == getattr(np, op)(v)
            assert ex.substitute(e, {"u": v}).value == want
    with pytest.raises(OverflowError, match="math range error"):
        ex.evaluate(ex.parse("exp(u)", {"u"}), {"u": 710.0})
    for v in (0.0, -0.0, -1.0):
        with pytest.raises(DomainError, match="log of non-positive"):
            ex.evaluate(ex.parse("log(u)", {"u"}), {"u": v})
    assert ex.evaluate(ex.parse("exp(u)", {"u"}), {"u": math.inf}) == math.inf
    assert ex.evaluate(ex.parse("log(u)", {"u"}), {"u": math.inf}) == math.inf


def test_single_use_chains_past_the_nesting_cap_compile(monkeypatch):
    # every node of these sums is used once, so all of it would be inline;
    # the right-nested one nests a pair of parentheses per term
    terms = [ex.Un("sin", ex.Bin("*", ex.Sym("u"), ex.Const(float(k)))) for k in range(1, 301)]
    left = ex.parse(" + ".join(f"sin(u*{k})" for k in range(1, 301)), {"u"})
    right = functools.reduce(lambda acc, term: ex.Bin("+", term, acc), terms[-2::-1], terms[-1])
    us = [0.3, -1.7, 2.0]
    for e in (left, right):
        fn = ex.compile_expression(e, ["u"])
        want = [ex.evaluate(e, {"u": u}) for u in us]
        assert [fn(np.float64(u)) for u in us] == want
        np.testing.assert_array_equal(fn(np.array(us)), want)
    # without the cap CPython rejects the generated source
    monkeypatch.setattr(ex, "INLINE_DEPTH", 10**6)
    ex.compile_expression(left, ["u"])
    with pytest.raises(SyntaxError, match="too many nested parentheses"):
        ex.compile_expression(right, ["u"])


def test_generated_code_gives_locals_to_shared_nodes_and_roots_only(monkeypatch):
    sources = []
    monkeypatch.setattr(ex, "exec", lambda src, scope: (sources.append(src), exec(src, scope)),
                        raising=False)
    x, y = ex.Sym("x"), ex.Sym("y")
    shared = ex.Un("sin", ex.Bin("*", x, y))
    root = ex.Bin("+", ex.Bin("*", shared, shared), ex.Un("cos", x))
    fn = ex.compile_expression([root, shared], ["x", "y"])
    body = sources[0].splitlines()[2:-1]
    assert body == ["    _t0 = np.sin(_a0*_a1)", "    _t1 = _t0*_t0+np.cos(_a0)"]
    assert fn(0.5, 2.0) == (ex.evaluate(root, {"x": 0.5, "y": 2.0}), math.sin(1.0))


# naive tree walks: the walks as they were before they were memoized

def _naive_free_symbols(e):
    if isinstance(e, ex.Const):
        return set()
    if isinstance(e, ex.Sym):
        return {e.name}
    if isinstance(e, ex.Un):
        return _naive_free_symbols(e.a)
    return _naive_free_symbols(e.a) | _naive_free_symbols(e.b)


def _naive_to_string(e):
    if isinstance(e, ex.Const):
        return ex._fmt_const(e.value)
    if isinstance(e, ex.Sym):
        return e.name
    if isinstance(e, ex.Un):
        if e.op == "neg":
            inner = _naive_to_string(e.a)
            return f"-({inner})" if ex._prec(e.a) < 2.5 else f"-{inner}"
        return f"{e.op}({_naive_to_string(e.a)})"
    a, b = _naive_to_string(e.a), _naive_to_string(e.b)
    if ex._prec(e.a) < ex._PREC[e.op]:
        a = f"({a})"
    if ex._prec(e.b) <= ex._PREC[e.op]:
        b = f"({b})"
    return f"{a} {e.op} {b}" if e.op in "+-" else f"{a}{e.op}{b}"


def _naive_substitute(e, mapping):
    if isinstance(e, ex.Const):
        return e
    if isinstance(e, ex.Sym):
        return ex._coerce(mapping[e.name]) if e.name in mapping else e
    if isinstance(e, ex.Un):
        a = _naive_substitute(e.a, mapping)
        if e.op == "neg":
            return ex.fold_neg(a)
        if isinstance(a, ex.Const):
            try:
                return ex.Const(ex.evaluate(ex.Un(e.op, a), {}))
            except DomainError:
                pass
            except OverflowError:
                raise ParseError(f"constant out of range: {_naive_to_string(ex.Un(e.op, a))}") \
                    from None
        return ex.Un(e.op, a)
    a, b = _naive_substitute(e.a, mapping), _naive_substitute(e.b, mapping)
    folder = {"+": ex.fold_add, "-": ex.fold_sub, "*": ex.fold_mul, "/": ex.fold_div,
              "^": ex.fold_pow}[e.op]
    try:
        out = folder(a, b)
    except (DomainError, ZeroDivisionError):
        return ex.Bin(e.op, a, b)
    except OverflowError:
        out = ex.Const(math.inf)
    if isinstance(out, ex.Const) and not math.isfinite(out.value) and all(
            isinstance(c, ex.Const) and math.isfinite(c.value) for c in (a, b)):
        raise ParseError(f"constant out of range: {_naive_to_string(ex.Bin(e.op, a, b))}")
    return out


def _substituted(fn):
    """fn()'s nodes, or the message of the ParseError it raises."""
    try:
        return fn()
    except ParseError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(entries=shared_graphs(),
       value=st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e200, ex.Sym("y"), ex.Const(0.0) - ex.Sym("y")]))
def test_memoized_walks_match_naive_tree_walks(entries, value):
    for e in entries:
        assert ex.free_symbols(e) == _naive_free_symbols(e)
        assert ex.to_string(e) == _naive_to_string(e)
    # x = 0 and x = 1 fold products and sums away, other constants fold
    # whole entries to constants, and 1e200 overflows some of them
    mapping = {"x": value}
    want = [_substituted(lambda e=e: _naive_substitute(e, mapping)) for e in entries]
    got = [_substituted(lambda e=e: ex.substitute(e, mapping)) for e in entries]
    assert all(g is w or g == w for g, w in zip(got, want))
    raised = [w for w in want if isinstance(w, str)]
    together = _substituted(lambda: ex.substitute(entries, mapping))
    if raised:
        assert together == raised[0]
    else:
        assert all(g is w for g, w in zip(together, want))


def test_substitute_keeps_the_constant_out_of_range_message():
    e = ex.parse("u*u + x*x*u + exp(x)", {"u", "x"})
    for mapping, text in (({"x": 1e200}, "1e+200*1e+200"), ({"x": 1000.0}, "exp(1000)")):
        with pytest.raises(ParseError) as naive:
            _naive_substitute(e, mapping)
        with pytest.raises(ParseError) as memo:
            ex.substitute(e, mapping)
        assert str(memo.value) == str(naive.value) == f"constant out of range: {text}"
