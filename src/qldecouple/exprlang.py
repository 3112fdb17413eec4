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
nodes hashes no trees.  `differentiate` takes a list of entries and
differentiates each distinct node once across them.  `compile_expression`
turns a list of entries (a whole coefficient) into one generated function
that computes each distinct subtree once, into a local.
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


def _coerce(x):
    if isinstance(x, Expr):
        return x
    return Const(float(x))


# ---------------------------------------------------------------------------
# folding constructors: constant arithmetic and 0/1 identities only
# ---------------------------------------------------------------------------

def _is_const(e, value=None):
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def fold_add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Bin("+", a, b)


def fold_sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return fold_neg(b)
    return Bin("-", a, b)


def fold_mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Bin("*", a, b)


def fold_div(a, b):
    if _is_const(b) and b.value != 0.0:
        if _is_const(a):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    return Bin("/", a, b)


def fold_pow(a, b):
    if not isinstance(b, Const):
        raise ParseError("exponent must be a constant")
    if b.value == 0.0:
        return Const(1.0)
    if b.value == 1.0:
        return a
    if _is_const(a):
        return Const(_pow_value(a.value, b.value, None))
    return Bin("^", a, b)


def fold_neg(a):
    if _is_const(a):
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
            return math.exp(v)
        if e.op == "log":
            if v <= 0.0:
                raise DomainError(f"log of non-positive in {to_string(e)}", e)
            return math.log(v)
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

def differentiate(exprs, var: str):
    """Exact derivative along `var`, with 0/1 constant folding, of one
    expression or of each entry of a list.  Each distinct node is
    differentiated once across all the entries."""
    memo = {}

    def d(e):
        if e in memo:
            return memo[e]
        out = None
        if isinstance(e, Const):
            out = Const(0.0)
        elif isinstance(e, Sym):
            out = Const(1.0) if e.name == var else Const(0.0)
        elif isinstance(e, Un):
            da = d(e.a)
            if e.op == "neg":
                out = fold_neg(da)
            elif e.op == "sqrt":
                out = fold_div(da, fold_mul(Const(2.0), Un("sqrt", e.a)))
            elif e.op == "exp":
                out = fold_mul(da, e)
            elif e.op == "log":
                out = fold_div(da, e.a)
            elif e.op == "sin":
                out = fold_mul(da, Un("cos", e.a))
            elif e.op == "cos":
                out = fold_neg(fold_mul(da, Un("sin", e.a)))
            elif e.op == "abs":
                # piecewise sign(x) = x/|x|; undefined at 0, caught at eval time
                out = fold_mul(da, fold_div(e.a, Un("abs", e.a)))
        elif isinstance(e, Bin) and e.op == "^":
            da, c = d(e.a), e.b.value
            out = fold_mul(fold_mul(Const(c), fold_pow(e.a, Const(c - 1.0))), da)
        elif isinstance(e, Bin):
            da, db = d(e.a), d(e.b)
            if e.op == "+":
                out = fold_add(da, db)
            elif e.op == "-":
                out = fold_sub(da, db)
            elif e.op == "*":
                out = fold_add(fold_mul(da, e.b), fold_mul(e.a, db))
            elif e.op == "/":
                num = fold_sub(fold_mul(da, e.b), fold_mul(e.a, db))
                out = fold_div(num, fold_pow(e.b, Const(2.0)))
        if out is None:
            raise TypeError(f"not an expression node: {e!r}")
        memo[e] = out
        return out

    return d(exprs) if isinstance(exprs, Expr) else [d(e) for e in exprs]


# ---------------------------------------------------------------------------
# utilities: free symbols, substitution, printing, compilation
# ---------------------------------------------------------------------------

def free_symbols(e: Expr) -> set:
    if isinstance(e, Const):
        return set()
    if isinstance(e, Sym):
        return {e.name}
    if isinstance(e, Un):
        return free_symbols(e.a)
    return free_symbols(e.a) | free_symbols(e.b)


def substitute(e: Expr, mapping) -> Expr:
    """Replace symbols by expressions (or numbers); folds constants.  A fold
    of finite constants that overflows, or gives inf or nan, raises
    ParseError."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Sym):
        if e.name in mapping:
            return _coerce(mapping[e.name])
        return e
    if isinstance(e, Un):
        a = substitute(e.a, mapping)
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
    a = substitute(e.a, mapping)
    b = substitute(e.b, mapping)
    folder = {"+": fold_add, "-": fold_sub, "*": fold_mul, "/": fold_div, "^": fold_pow}[e.op]
    try:
        out = folder(a, b)
    except (DomainError, ZeroDivisionError):
        return Bin(e.op, a, b)
    except OverflowError:
        out = Const(math.inf)
    if isinstance(out, Const) and not math.isfinite(out.value) and all(
            isinstance(c, Const) and math.isfinite(c.value) for c in (a, b)):
        raise ParseError(f"constant out of range: {to_string(Bin(e.op, a, b))}")
    return out


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


def to_string(e: Expr) -> str:
    """Infix form that parses back to an evaluation-equivalent tree."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Un):
        if e.op == "neg":
            inner = to_string(e.a)
            if _prec(e.a) < 2.5:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({to_string(e.a)})"
    a, b = to_string(e.a), to_string(e.b)
    if _prec(e.a) < _PREC[e.op]:
        a = f"({a})"
    # left-associative tiers: parenthesize right child at equal precedence
    if _prec(e.b) <= _PREC[e.op]:
        b = f"({b})"
    return f"{a} {e.op} {b}" if e.op in "+-" else f"{a}{e.op}{b}"


_UN_NP = {
    "neg": "(-({0}))",
    "sqrt": "np.sqrt({0})",
    "exp": "np.exp({0})",
    "log": "np.log({0})",
    "sin": "np.sin({0})",
    "cos": "np.cos({0})",
    "abs": "np.abs({0})",
}


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
    once, into a local, so every entry runs the float operations it would
    run alone, in the same order.

    The compiled form follows IEEE semantics (nan/inf instead of DomainError);
    callers check finiteness and fall back to `evaluate` for diagnostics.
    """
    names = {name: f"_a{i}" for i, name in enumerate(arg_order)}
    lines, refs, missing = [], {}, set()

    def ref(e):
        """The literal, argument or local holding the value of node e."""
        if e not in refs:
            if isinstance(e, Const):
                # repr(inf) and repr(nan) are names the generated code lacks
                refs[e] = f"({e.value!r})" if math.isfinite(e.value) else f"float('{e.value!r}')"
            elif isinstance(e, Sym):
                if e.name not in names:
                    missing.add(e.name)
                refs[e] = names.get(e.name, "")
            else:
                if isinstance(e, Un):
                    code = _UN_NP[e.op].format(ref(e.a))
                elif e.op == "^":
                    code = f"_pow({ref(e.a)}, {ref(e.b)})"
                else:
                    code = f"({ref(e.a)}{e.op}{ref(e.b)})"
                refs[e] = f"_t{len(lines)}"
                lines.append(f"    {refs[e]} = {code}\n")
        return refs[e]

    single = isinstance(exprs, Expr)
    values = [f"{ref(e)} + _z" for e in ([exprs] if single else exprs)]
    if missing:
        raise UnknownSymbol(sorted(missing)[0])
    result = values[0] if single else "(" + "".join(v + ", " for v in values) + ")"
    args = list(names.values())
    src = (f"def _fn({', '.join(args)}):\n    _z = 0.0*({'+'.join(args) or '0'})\n"
           + "".join(lines) + f"    return {result}\n")
    scope = {"np": np, "_pow": _pow}
    exec(src, scope)  # noqa: S102 - source is generated locally
    return scope["_fn"]
