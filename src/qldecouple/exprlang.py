"""Small expression language: parser, evaluator, exact differentiator.

All model coefficients, sources, hints and candidate transformations are
written in this language.  Grammar (EBNF, also documented in the README):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom { "^" unary } ;          (* exponent must be constant *)
    atom    = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" ;

Operators associate left within a tier, "^" binds tighter than unary minus.
The functions are sqrt, exp, log, sin, cos, abs.  Exponents are restricted
to constant (rational) values so differentiation stays exact.

Expressions are immutable and interned: building a node equal to a live one
returns that node, so identical subtrees are one object and a dict keyed by
nodes hashes no trees.  The walks cost what the graph costs, not what its
tree expansion costs: `differentiate`, `substitute`, `free_symbols` and
`to_string` visit each distinct node once per call, and `differentiate` and
`substitute` take a list of entries and visit each node once across them;
`differentiate` takes a list of names too, and gives a node its partials
along all of them in one visit.  `compile_expression` turns a list of
entries (a coefficient or its Jacobian) into one generated function that
computes each distinct subtree once.  A node gets a local when it roots an
entry or is used more than once; a node used once is written inline inside
its parent's expression, up to INLINE_DEPTH levels of nesting, past which it
gets a local again.
"""

from __future__ import annotations

import math
import re
import weakref

import numpy as np

from .errors import DomainError, ParseError, UnknownSymbol

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos", "abs")

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# every live node, keyed by its class and fields; a Bin or Un key holds its
# interned children, which hash by identity
_NODES = weakref.WeakValueDictionary()


class Expr:
    """Base node. Subclasses: Const, Sym, Un, Bin.  Nodes compare and hash by
    identity, which interning makes structural equality; interning takes no
    lock, and the package starts no threads."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
        return node

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def __repr__(self):
        fields = (repr(getattr(self, name)) for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __add__(self, other):
        return fold_add(self, _coerce(other))

    def __radd__(self, other):
        return fold_add(_coerce(other), self)

    def __sub__(self, other):
        return fold_sub(self, _coerce(other))

    def __rsub__(self, other):
        return fold_sub(_coerce(other), self)

    def __mul__(self, other):
        return fold_mul(self, _coerce(other))

    def __rmul__(self, other):
        return fold_mul(_coerce(other), self)

    def __truediv__(self, other):
        return fold_div(self, _coerce(other))

    def __rtruediv__(self, other):
        return fold_div(_coerce(other), self)

    def __pow__(self, other):
        return fold_pow(self, _coerce(other))

    def __neg__(self):
        return fold_neg(self)

    def __str__(self):
        return to_string(self)


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        # the sign keys 0.0 and -0.0, which compare equal, apart
        value = float(value)
        return super().__new__(cls, value, math.copysign(1.0, value))


class Sym(Expr):
    __slots__ = ("name",)


class Un(Expr):
    __slots__ = ("op", "a")


class Bin(Expr):
    __slots__ = ("op", "a", "b")


# held for the life of the process: the folds and the differentiator make
# these constants most often
_ZERO, _ONE, _TWO = Const(0.0), Const(1.0), Const(2.0)


def _coerce(x):
    if isinstance(x, Expr):
        return x
    return Const(float(x))


# ---------------------------------------------------------------------------
# folding constructors: constant arithmetic and 0/1 identities only
# ---------------------------------------------------------------------------

def fold_add(a, b):
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value == 0.0:
        return a
    return Bin("+", a, b)


def fold_sub(a, b):
    if type(b) is Const:
        if type(a) is Const:
            return Const(a.value - b.value)
        if b.value == 0.0:
            return a
    elif type(a) is Const and a.value == 0.0:
        return fold_neg(b)
    return Bin("-", a, b)


def fold_mul(a, b):
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value * b.value)
        if a.value == 0.0:
            return _ZERO
        if a.value == 1.0:
            return b
    elif type(b) is Const:
        if b.value == 0.0:
            return _ZERO
        if b.value == 1.0:
            return a
    return Bin("*", a, b)


def fold_div(a, b):
    b_const = type(b) is Const
    if b_const and b.value != 0.0:
        if type(a) is Const:
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if type(a) is Const and a.value == 0.0 and not (b_const and b.value == 0.0):
        return _ZERO
    return Bin("/", a, b)


def fold_pow(a, b):
    if type(b) is not Const:
        raise ParseError("exponent must be a constant")
    if b.value == 0.0:
        return _ONE
    if b.value == 1.0:
        return a
    if type(a) is Const:
        return Const(_pow_value(a.value, b.value, None))
    return Bin("^", a, b)


def fold_neg(a):
    if type(a) is Const:
        return Const(-a.value)
    return Un("neg", a)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text, symbols):
        self.text = text
        self.symbols = set(symbols)
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def _expect(self, ch):
        if self._peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse(self):
        e = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected '{self.text[self.pos]}'", self.pos)
        return e

    def expr(self):
        e = self.term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            e = Bin(op, e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self._peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.unary()
            e = Bin(op, e, rhs)
        return e

    def unary(self):
        if self._peek() == "-":
            self.pos += 1
            return Un("neg", self.unary())
        return self.power()

    def power(self):
        e = self.atom()
        while self._peek() == "^":
            at = self.pos
            self.pos += 1
            rhs = self._exponent_operand()
            try:
                c = _constant_value(rhs)
            except OverflowError:
                raise ParseError("exponent out of range", at) from None
            if c is None:
                raise ParseError("exponent must be a constant", at)
            e = Bin("^", e, Const(c))
        return e

    def _exponent_operand(self):
        # single operand so that a^b^c folds left: (a^b)^c
        if self._peek() == "-":
            self.pos += 1
            return Un("neg", self._exponent_operand())
        return self.atom()

    def atom(self):
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self._expect(")")
            return e
        if ch.isdigit():
            m = _NUMBER.match(self.text, self.pos)
            if not m:
                raise ParseError("bad number", self.pos)
            value = float(m.group())
            if math.isinf(value):
                raise ParseError("number out of range", self.pos)
            self.pos = m.end()
            return Const(value)
        m = _NAME.match(self.text, self.pos)
        if not m:
            raise ParseError(f"unexpected '{ch}'" if ch else "unexpected end of input", self.pos)
        name = m.group()
        at = self.pos
        self.pos = m.end()
        if name in FUNCTIONS:
            self._expect("(")
            arg = self.expr()
            self._expect(")")
            return Un(name, arg)
        if name not in self.symbols:
            raise UnknownSymbol(name, at)
        return Sym(name)


def _constant_value(e):
    """Value of a symbol-free subtree, or None."""
    try:
        if free_symbols(e):
            return None
        return evaluate(e, {})
    except DomainError:
        return None


def parse(text: str, symbols) -> Expr:
    """Parse `text` against the declared symbol set."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, symbols).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _pow_value(base, expo, node):
    if base == 0.0 and expo < 0.0:
        raise DomainError("zero raised to a negative power", node)
    if base < 0.0 and expo != round(expo):
        raise DomainError("negative base with non-integer exponent", node)
    return math.pow(base, expo)


def evaluate(e: Expr, bindings) -> float:
    """IEEE double value of `e` at a point binding."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise UnknownSymbol(e.name) from None
    if isinstance(e, Un):
        v = evaluate(e.a, bindings)
        if e.op == "neg":
            return -v
        if e.op == "sqrt":
            if v < 0.0:
                raise DomainError(f"sqrt of negative in {to_string(e)}", e)
            return math.sqrt(v)
        if e.op == "exp":
            math.exp(v)  # raises OverflowError where exp overflows
            return float(np.exp(v))  # compiled code's bits, not always math.exp's
        if e.op == "log":
            if v <= 0.0:
                raise DomainError(f"log of non-positive in {to_string(e)}", e)
            return float(np.log(v))
        if e.op == "sin":
            return math.sin(v)
        if e.op == "cos":
            return math.cos(v)
        if e.op == "abs":
            return abs(v)
    if isinstance(e, Bin):
        a = evaluate(e.a, bindings)
        b = evaluate(e.b, bindings)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise DomainError(f"division by zero in {to_string(e)}", e)
            return a / b
        if e.op == "^":
            return _pow_value(a, b, e)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

# the derivative of a node e from those of its children: da of e.a and,
# for a binary operator, db of e.b
_RULES = {
    "neg": lambda e, da, db: fold_neg(da),
    "sqrt": lambda e, da, db: fold_div(da, fold_mul(_TWO, Un("sqrt", e.a))),
    "exp": lambda e, da, db: fold_mul(da, e),
    "log": lambda e, da, db: fold_div(da, e.a),
    "sin": lambda e, da, db: fold_mul(da, Un("cos", e.a)),
    "cos": lambda e, da, db: fold_neg(fold_mul(da, Un("sin", e.a))),
    # piecewise sign(x) = x/|x|; undefined at 0, caught at eval time
    "abs": lambda e, da, db: fold_mul(da, fold_div(e.a, Un("abs", e.a))),
    "+": lambda e, da, db: fold_add(da, db),
    "-": lambda e, da, db: fold_sub(da, db),
    "*": lambda e, da, db: fold_add(fold_mul(da, e.b), fold_mul(e.a, db)),
    "/": lambda e, da, db: fold_div(fold_sub(fold_mul(da, e.b), fold_mul(e.a, db)),
                                    fold_pow(e.b, _TWO)),
    # the exponent is a constant
    "^": lambda e, da, db: fold_mul(fold_mul(e.b, fold_pow(e.a, Const(e.b.value - 1.0))), da),
}


def differentiate(exprs, var):
    """Exact derivative along `var`, with 0/1 constant folding, of one
    expression or of each entry of a list; with a list of names `var`, one
    such result per name.  One walk with one memo: each distinct node is
    differentiated once, along every name, across all the entries."""
    names = [var] if isinstance(var, str) else list(var)
    memo = {}

    def d(e):
        """The partials of e along each of the names."""
        out = memo.get(e)
        if out is None:
            if isinstance(e, (Un, Bin)):
                rule = _RULES[e.op]
                pairs = zip(d(e.a), d(e.b)) if isinstance(e, Bin) else ((da, None) for da in d(e.a))
                out = tuple(rule(e, da, db) for da, db in pairs)
            elif isinstance(e, Sym):
                out = tuple(_ONE if e.name == nm else _ZERO for nm in names)
            elif isinstance(e, Const):
                out = (_ZERO,) * len(names)
            else:
                raise TypeError(f"not an expression node: {e!r}")
            memo[e] = out
        return out

    if isinstance(exprs, Expr):
        return d(exprs)[0] if isinstance(var, str) else list(d(exprs))
    per_name = [list(p) for p in zip(*map(d, exprs))] or [[] for _ in names]
    return per_name[0] if isinstance(var, str) else per_name


# ---------------------------------------------------------------------------
# utilities: free symbols, substitution, printing, compilation
# ---------------------------------------------------------------------------

def use_counts(exprs) -> dict:
    """Uses of each distinct node of one expression or a list of entries:
    one per entry it roots and one per reference from a distinct parent
    node (two for x*x).  The dict lists each node after its children."""
    counts = {}

    def visit(e):
        if e in counts:
            counts[e] += 1
            return
        if type(e) is Bin:
            visit(e.a)
            visit(e.b)
        elif type(e) is Un:
            visit(e.a)
        counts[e] = 1

    for e in [exprs] if isinstance(exprs, Expr) else exprs:
        visit(e)
    return counts


def free_symbols(e: Expr) -> set:
    """Names of the symbols of e, each distinct node visited once."""
    seen, names, todo = set(), set(), [e]
    while todo:
        e = todo.pop()
        if e in seen:
            continue
        seen.add(e)
        if isinstance(e, Sym):
            names.add(e.name)
        elif isinstance(e, Un):
            todo.append(e.a)
        elif isinstance(e, Bin):
            todo += (e.a, e.b)
    return names


_FOLDERS = {"+": fold_add, "-": fold_sub, "*": fold_mul, "/": fold_div, "^": fold_pow}


def substitute(exprs, mapping):
    """Replace symbols by expressions (or numbers) in one expression or in
    each entry of a list; folds constants.  Each distinct node is rebuilt
    once across all the entries.  A fold of finite constants that
    overflows, or gives inf or nan, raises ParseError."""
    memo = {}

    def sub(e):
        out = memo.get(e)
        if out is None:
            out = memo[e] = _substitute_node(e, sub, mapping)
        return out

    return sub(exprs) if isinstance(exprs, Expr) else [sub(e) for e in exprs]


def _substitute_node(e, sub, mapping):
    """e rebuilt from its children's substitutions sub(child)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Sym):
        if e.name in mapping:
            return _coerce(mapping[e.name])
        return e
    if isinstance(e, Un):
        a = sub(e.a)
        if e.op == "neg":
            return fold_neg(a)
        if isinstance(a, Const):
            try:
                return Const(evaluate(Un(e.op, a), {}))
            except DomainError:
                pass
            except OverflowError:
                raise ParseError(f"constant out of range: {to_string(Un(e.op, a))}") from None
        return Un(e.op, a)
    a, b = sub(e.a), sub(e.b)
    try:
        out = _FOLDERS[e.op](a, b)
    except (DomainError, ZeroDivisionError):
        return Bin(e.op, a, b)
    except OverflowError:
        out = Const(math.inf)
    if isinstance(out, Const) and not math.isfinite(out.value) and all(
            isinstance(c, Const) and math.isfinite(c.value) for c in (a, b)):
        raise ParseError(f"constant out of range: {to_string(Bin(e.op, a, b))}")
    return out


# binding strength of the printed operators, the same in Python for all
# but "^", which the generated code writes as a call
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2.5, "^": 3}


def _prec(e):
    if isinstance(e, (Const, Sym)):
        if isinstance(e, Const) and e.value < 0:
            return 2.5
        return 4
    if isinstance(e, Un):
        return _PREC["neg"] if e.op == "neg" else 4
    return _PREC[e.op]


def _fmt_const(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def to_string(e: Expr, names=None) -> str:
    """Infix form that parses back to an evaluation-equivalent tree.  Each
    distinct node is printed once per call.  `names` maps nodes to the names
    that stand for them below the top node (a document's definitions)."""
    names = names or {}
    memo = {}

    def operand(c, parens):
        """The text of child c, in parentheses when `parens` and c is not
        printed as a name."""
        if c in names:
            return names[c]
        text = memo.get(c)
        if text is None:
            text = memo[c] = show(c)
        return f"({text})" if parens else text

    def show(e):
        if isinstance(e, Const):
            return _fmt_const(e.value)
        if isinstance(e, Sym):
            return e.name
        if isinstance(e, Un):
            if e.op == "neg":
                return "-" + operand(e.a, _prec(e.a) < 2.5)
            return f"{e.op}({operand(e.a, False)})"
        a = operand(e.a, _prec(e.a) < _PREC[e.op])
        # left-associative tiers: parenthesize right child at equal precedence
        b = operand(e.b, _prec(e.b) <= _PREC[e.op])
        return f"{a} {e.op} {b}" if e.op in "+-" else f"{a}{e.op}{b}"

    return show(e)


# Levels of nodes an inline expression may nest before the node gets a
# local; a level adds at most one pair of parentheses, and CPython rejects
# more than 200 nested ones.
INLINE_DEPTH = 32


def _pow(base, expo):
    """base ** expo with the C library's pow on arrays too.  numpy raises a
    float64 scalar to a power with pow() but an array with its own
    vectorized power, whose last bits differ; float_power is pow() on every
    element, so a stack of states evaluates to the same bits as each state
    alone."""
    return np.float_power(base, expo) if isinstance(base, np.ndarray) else base ** expo


def compile_expression(exprs, arg_order):
    """Compile one expression to a positional callable over floats or numpy
    arrays, or a list of expressions to one callable returning the tuple of
    their values.  The generated function computes each distinct subtree
    once, so every entry runs the float operations it would run alone, on
    the same operands.

    A node gets a local when it roots an entry, is used more than once
    (use_counts) or reads no argument; any other node is written inline
    inside its parent's expression, and gets a local again where inlining
    would nest deeper than INLINE_DEPTH.  Symbol-free nodes run on Python
    floats, which raise on division by zero or overflow; as locals they
    raise in the order of a post-order walk over the entries.

    The compiled form follows IEEE semantics (nan/inf instead of DomainError);
    callers check finiteness and fall back to `evaluate` for diagnostics.
    """
    names = {name: f"_a{i}" for i, name in enumerate(arg_order)}
    roots = [exprs] if isinstance(exprs, Expr) else list(exprs)
    counts = use_counts(roots)
    for e in roots:
        counts[e] += 1  # a root always gets a local
    lines, refs, missing = [], {}, set()

    def ref(e):
        """(code, prec, depth, live) for node e: a literal, argument or local
        with depth 0, or its inline expression nested `depth` levels deep;
        prec is its precedence in Python (as _PREC, 4 for atoms), and live
        tells whether it reads an argument."""
        hit = refs.get(e)
        if hit is not None:
            return hit
        if type(e) is Bin:
            a, prec_a, depth, live = ref(e.a)
            b, prec_b, depth_b, live_b = ref(e.b)
            if e.op == "^":
                code, prec = f"_pow({a}, {b})", 4
            else:
                # left-associative tiers: a right child of equal precedence
                # keeps its parentheses, and so its order of operations
                prec = _PREC[e.op]
                code = (f"({a})" if prec_a < prec else a) + e.op + (f"({b})" if prec_b <= prec else b)
            depth, live = max(depth, depth_b) + 1, live or live_b
        elif type(e) is Un:
            a, prec_a, depth, live = ref(e.a)
            if e.op == "neg":
                code, prec = "-" + (f"({a})" if prec_a < _PREC["neg"] else a), _PREC["neg"]
            else:
                code, prec = f"np.{e.op}({a})", 4
            depth += 1
        elif type(e) is Sym:
            if e.name not in names:
                missing.add(e.name)
            hit = refs[e] = (names.get(e.name, ""), 4, 0, True)
            return hit
        else:
            # repr(inf) and repr(nan) are names the generated code lacks
            code = repr(e.value) if math.isfinite(e.value) else f"float('{e.value!r}')"
            hit = refs[e] = (code, _PREC["neg"] if code[0] == "-" else 4, 0, False)
            return hit
        if live and depth <= INLINE_DEPTH and counts[e] == 1:
            return code, prec, depth, live
        hit = refs[e] = (f"_t{len(lines)}", 4, 0, live)
        lines.append(f"    {hit[0]} = {code}\n")
        return hit

    values = [f"{ref(e)[0]} + _z" for e in roots]
    if missing:
        raise UnknownSymbol(sorted(missing)[0])
    result = values[0] if isinstance(exprs, Expr) else "(" + "".join(v + ", " for v in values) + ")"
    args = list(names.values())
    src = (f"def _fn({', '.join(args)}):\n    _z = 0.0*({'+'.join(args) or '0'})\n"
           + "".join(lines) + f"    return {result}\n")
    scope = {"np": np, "_pow": _pow}
    exec(src, scope)  # noqa: S102 - source is generated locally
    return scope["_fn"]
