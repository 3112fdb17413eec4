"""Quasilinear system model u_t + A(t,x,u) u_x = g(t,x,u).

Holds the coefficient matrix and source as expression trees, performs
validated loading from JSON documents, pointwise evaluation, exact
directional derivatives of A, deterministic state-space sampling, and the
conjugation construction used as the property-test oracle.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import exprlang as ex
from .errors import (
    DomainError,
    NotInverse,
    ParseError,
    SchemaError,
    SingularJacobian,
    TooLarge,
    UnknownSymbol,
)

INDEPENDENT = ("t", "x")
INVERSE_CHECK_COUNT = 64  # states at which conjugate_system checks h(H(u)) = u
INVERSE_CHECK_TOL = 1e-9


@dataclass
class SamplePlan:
    """Deterministic sampling plan over the domain box."""

    count: int = 200
    strategy: str = "lowDiscrepancy"
    seed: int = 42
    separation_tolerance: float = 1e-3

    def __post_init__(self):
        if self.count < 1:
            raise SchemaError("sample count must be >= 1")
        if self.strategy not in ("tensorGrid", "lowDiscrepancy"):
            raise SchemaError(f"unknown strategy '{self.strategy}'")
        if not self.separation_tolerance >= 0:
            raise SchemaError("separation tolerance must be >= 0")


def _golden_alphas(d):
    x = 2.0
    for _ in range(40):
        x = (1.0 + x) ** (1.0 / (d + 1))
    return np.array([(1.0 / x) ** (j + 1) % 1.0 for j in range(d)])


def unit_samples(plan: SamplePlan, dim: int) -> np.ndarray:
    """Points in [0,1)^dim; bit-reproducible for a fixed plan."""
    if plan.strategy == "tensorGrid":
        m = max(1, math.ceil(plan.count ** (1.0 / dim)))
        axes = [(np.arange(m) + 0.5) / m for _ in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        return pts[: plan.count]
    alphas = _golden_alphas(dim)
    offset = plan.seed * 9973
    idx = np.arange(1 + offset, plan.count + 1 + offset, dtype=float)
    return (0.5 + np.outer(idx, alphas)) % 1.0


def _evaluate(fn, t, x, u):
    """Entries of a function compiled over (t, x, *states) at one state u (n,)
    -> (m,), or at a stack of states (N, n) -> (N, m) as a transposed view."""
    return np.array(fn(t, x, *u.T)).T


def _directions(w):
    """Indices k of the state directions with a nonzero weight w[..., k]."""
    return (w if w.ndim == 1 else w.any(axis=0)).nonzero()[0].tolist()


class QuasilinearSystem:
    """Immutable-by-convention system model.

    Entries are expression trees over {t, x} + state names (parameters are
    substituted at load time).  A conjugated backend may replace the entry
    trees by callables built from a block-triangular parent system.
    """

    def __init__(self, n, states, a_entries, g_entries=None, parameters=None,
                 domain=None, exclude=None, hints=None, a0_entries=None,
                 name="system"):
        self.n = int(n)
        self.states = list(states)
        self.parameters = dict(parameters or {})
        self.a = a_entries
        self.g = g_entries if g_entries is not None else [ex.Const(0.0)] * self.n
        self.a0 = a0_entries
        self.domain = dict(domain or {})
        for nm in INDEPENDENT:
            self.domain.setdefault(nm, (0.0, 1.0))
        self.exclude = list(exclude or [])
        self.hints = dict(hints or {})
        self.name = name
        self._conjugated = None
        self._cache = {}        # _compiled entries and eigen.analytic_field
        self._validate()

    # -- construction helpers -------------------------------------------------

    def _validate(self):
        if len(self.states) != self.n:
            raise SchemaError(f"expected {self.n} state names, got {len(self.states)}")
        if len(self.a) != self.n or any(len(row) != self.n for row in self.a):
            raise SchemaError("coefficient matrix must be square of size n")
        if len(self.g) != self.n:
            raise SchemaError("source must have length n")
        allowed = set(INDEPENDENT) | set(self.states)
        for i, row in enumerate(self.a):
            for j, e in enumerate(row):
                bad = ex.free_symbols(e) - allowed
                if bad:
                    raise SchemaError(f"A[{i}][{j}] uses undeclared symbol '{sorted(bad)[0]}'")
        for i, e in enumerate(self.g):
            bad = ex.free_symbols(e) - allowed
            if bad:
                raise SchemaError(f"g[{i}] uses undeclared symbol '{sorted(bad)[0]}'")
        for nm, (lo, hi) in self.domain.items():
            if not lo < hi:
                raise SchemaError(f"degenerate domain interval for '{nm}'")
        for nm in self.states:
            if nm not in self.domain:
                raise SchemaError(f"missing domain interval for state '{nm}'")

    @property
    def arg_order(self):
        return list(INDEPENDENT) + self.states

    def _compiled(self, key):
        """The one compiled function of the flat entries of `key` ("A", "g",
        "A0", "exclude", or ("dA", k) / ("dA0", k) for the derivative along
        state k), with their expressions and the name used in diagnostics."""
        hit = self._cache.get(key)
        if hit is None:
            name, k = (key, None) if isinstance(key, str) else key
            rows = {"A": self.a, "dA": self.a, "A0": self.a0, "dA0": self.a0}.get(name)
            exprs = ({"g": self.g, "exclude": self.exclude}[name] if rows is None
                     else [e for row in rows for e in row])
            if k is not None:
                exprs = ex.differentiate(exprs, self.states[k])
                name = f"{name}/d{self.states[k]}"
            hit = (ex.compile_expression(exprs, self.arg_order), exprs, name)
            self._cache[key] = hit
        return hit

    # -- admissibility ---------------------------------------------------------

    def in_domain(self, t, x, u):
        """True when every state lies in its domain interval.  At one state
        u (n,) a bool; on a stack (N, n) the row mask."""
        lo, hi = np.array([self.domain[nm] for nm in self.states], dtype=float).T
        inside = ((lo <= u) & (u <= hi)).all(axis=-1)
        return inside if np.ndim(u) > 1 else bool(inside)

    def is_excluded(self, t, x, u):
        """True when any exclusion predicate evaluates > 0 or to a non-finite
        value (a predicate outside its own domain excludes the state).  At
        one state u (n,) a bool; on a stack (N, n), t and x scalars or (N,),
        the row mask."""
        u = np.asarray(u, dtype=np.float64)
        if not self.exclude:
            return np.zeros(len(u), dtype=bool) if u.ndim > 1 else False
        # float64 arguments make 1/0 give inf instead of raising
        with np.errstate(all="ignore"):
            vals = _evaluate(self._compiled("exclude")[0], np.float64(t), np.float64(x), u)
            excluded = ~((-math.inf < vals) & (vals <= 0.0)).all(axis=-1)
        return excluded if u.ndim > 1 else bool(excluded)

    # -- evaluation ------------------------------------------------------------
    #
    # One core per coefficient (_matrix, _source, _derivative) evaluates at one
    # state u of shape (n,) or a stack of states of shape (N, n); t and x are
    # scalars or follow the stack.  A conjugated backend implements the same
    # three cores, and the public methods call whichever the system has.

    def _values(self, key, t, x, u):
        """Entries of `key` (see _compiled), shaped (n,) for g and (n, n)
        otherwise, with a leading N axis on a stack.  At one state a
        non-finite entry raises DomainError naming it; a stack keeps nan and
        inf."""
        fn, exprs, name = self._compiled(key)
        shape = (self.n,) if name == "g" else (self.n, self.n)
        vals = _evaluate(fn, t, x, u)
        # vals . vals is finite when every entry is (unless it overflows),
        # and costs less than the entrywise check
        if u.ndim == 1 and not math.isfinite(vals.dot(vals)) and not np.isfinite(vals).all():
            k = int(np.argmin(np.isfinite(vals)))
            where = name + "".join(f"[{i}]" for i in np.unravel_index(k, shape))
            try:
                ex.evaluate(exprs[k], dict(zip(self.arg_order, (t, x, *u))))
            except (DomainError, OverflowError) as err:
                raise DomainError(f"{where}: {err}") from None
            raise DomainError(f"non-finite value in {where}")
        return vals.reshape(u.shape[:-1] + shape)

    def _a0_solver(self, t, x, u):
        """The map b -> A0^-1 b with A0 evaluated once at u.  A singular A0
        raises DomainError at one state and leaves nan in its rows of a
        stack."""
        A0 = self._values("A0", t, x, u)

        def solve(b):
            try:
                return np.linalg.solve(A0, b)
            except np.linalg.LinAlgError:
                if u.ndim == 1:
                    raise DomainError("singular A0") from None
            out = np.full(b.shape, np.nan)
            for i, a0 in enumerate(A0):
                with contextlib.suppress(np.linalg.LinAlgError):
                    out[i] = np.linalg.solve(a0, b[i])
            return out

        return solve

    def _matrix(self, t, x, u):
        A = self._values("A", t, x, u)
        return A if self.a0 is None else self._a0_solver(t, x, u)(A)

    def _source(self, t, x, u):
        g = self._values("g", t, x, u)
        return g if self.a0 is None else self._a0_solver(t, x, u)(g[..., None])[..., 0]

    def _derivative(self, t, x, u, w):
        def along(name):
            out = np.zeros(u.shape[:-1] + (self.n, self.n))
            for k in _directions(w):
                out += w[..., k, None, None] * self._values((name, k), t, x, u)
            return out

        D = along("dA")
        if self.a0 is not None:
            # A = A0^-1 A1, so dA = A0^-1 (dA1 - dA0 A)
            solve = self._a0_solver(t, x, u)
            A = solve(self._values("A", t, x, u))
            D = solve(D - along("dA0") @ A)
        return D

    def _core(self, core, t, x, u, *w):
        """Run `core` on this system or its conjugated backend, with
        floating-point warnings off (_values handles non-finite entries)."""
        backend = self if self._conjugated is None else self._conjugated
        with np.errstate(all="ignore"):
            return getattr(backend, core)(t, x, np.asarray(u, dtype=float), *w)

    def eval_matrix(self, t, x, u) -> np.ndarray:
        return self._core("_matrix", t, x, u)

    def eval_source(self, t, x, u) -> np.ndarray:
        return self._core("_source", t, x, u)

    def directional_matrix_derivative(self, t, x, u, w) -> np.ndarray:
        """Sum_k w_k dA/du_k, exact via symbolic differentiation."""
        return self._core("_derivative", t, x, u, np.asarray(w, dtype=float))

    def eval_rows(self, method, t, x, U, errors, *w):
        """self.<method>(t, x, U, *w), method eval_matrix, eval_source or
        directional_matrix_derivative, on a stack U (N, n) with t and x
        scalars or following it and the rows of each w following it.  A row
        left non-finite (every row, when the stacked call raises) that has
        no error yet in `errors` is redone at its one state and keeps the
        DomainError or LinAlgError that call raises, so each row has the
        values or the error of its one-state call."""
        fn = getattr(self, method)
        try:
            out = np.ascontiguousarray(fn(t, x, U, *w))
            finite = np.isfinite(out).all(axis=tuple(range(1, out.ndim)))
        except (DomainError, np.linalg.LinAlgError):
            # g is a vector per state, A and dA matrices
            out = np.full(U.shape if method == "eval_source" else U.shape + U.shape[1:], np.nan)
            finite = np.zeros(len(U), dtype=bool)
        if finite.all():
            return out
        t, x = np.broadcast_to(t, len(U)), np.broadcast_to(x, len(U))
        for k in np.flatnonzero(~finite & np.equal(errors, None)):
            try:
                out[k] = fn(t[k], x[k], U[k], *(v[k] for v in w))
            except (DomainError, np.linalg.LinAlgError) as err:
                errors[k] = err
        return out

    def eval_matrix_batch(self, t, x, U) -> np.ndarray:
        """A at the columns of U (n, N), each at its own x when x is an
        array; returns (n, n, N).  Non-finite entries stay in the result."""
        return np.ascontiguousarray(np.moveaxis(self._core("_matrix", t, x, U.T), 0, -1))

    def eval_source_batch(self, t, x, U) -> np.ndarray:
        """g at the columns of U (n, N); returns (n, N)."""
        return np.ascontiguousarray(self._core("_source", t, x, U.T).T)

    @property
    def homogeneous(self):
        if self._conjugated is not None:
            return self._conjugated.tri.homogeneous
        return all(isinstance(e, ex.Const) and e.value == 0.0 for e in self.g)

    @property
    def autonomous(self):
        if self._conjugated is not None:
            return self._conjugated.autonomous
        exprs = [e for rows in (self.a, self.a0 or []) for row in rows for e in row]
        return not any(ex.free_symbols(e) & set(INDEPENDENT) for e in exprs + list(self.g))

    # -- sampling --------------------------------------------------------------

    def sample_points(self, plan: SamplePlan) -> np.ndarray:
        """Rows (t, x, u_1..u_n) inside the domain box."""
        names = self.arg_order
        lows = np.array([self.domain[nm][0] for nm in names])
        highs = np.array([self.domain[nm][1] for nm in names])
        pts = unit_samples(plan, len(names))
        return lows + pts * (highs - lows)


class _ConjugatedBackend:
    """A(u) = J(u)^-1 T(H(u)) J(u) with J = grad H, evaluated numerically."""

    def __init__(self, tri_system, forward_map, u_names):
        self.tri = tri_system
        self.n = tri_system.n
        self.autonomous = tri_system.autonomous and not any(
            ex.free_symbols(e) & set(INDEPENDENT) for e in forward_map)
        self.u_names, self.order = list(u_names), list(INDEPENDENT) + list(u_names)
        columns = [ex.differentiate(forward_map, nm) for nm in u_names]
        self.j_entries = [list(row) for row in zip(*columns)]
        self.j_flat = [e for row in self.j_entries for e in row]
        # H, then the entries of J = grad H
        self.hj_fn = ex.compile_expression(list(forward_map) + self.j_flat, self.order)

    @functools.cached_property
    def dj_fns(self):
        """dJ/du_k compiled, entries flat, for each state k: built on the first
        _derivative call, which a symbolic conjugation never makes."""
        return [ex.compile_expression(ex.differentiate(self.j_flat, nm), self.order)
                for nm in self.u_names]

    # J and T are made contiguous so that a stacked product runs the same
    # BLAS call per state as the product at one state
    def _jh(self, t, x, u):
        vals = _evaluate(self.hj_fn, t, x, u)
        J = vals[..., self.n:].reshape(u.shape[:-1] + (self.n, self.n))
        return np.ascontiguousarray(J), vals[..., :self.n]

    def _matrix(self, t, x, u):
        J, H = self._jh(t, x, u)
        return np.linalg.solve(J, np.ascontiguousarray(self.tri._matrix(t, x, H)) @ J)

    def _source(self, t, x, u):
        J, H = self._jh(t, x, u)
        return np.linalg.solve(J, self.tri._source(t, x, H)[..., None])[..., 0]

    def _derivative(self, t, x, u, w):
        J, H = self._jh(t, x, u)
        T = self.tri._matrix(t, x, H)
        dJ = np.zeros(J.shape)
        for k in _directions(w):
            dJ += w[..., k, None, None] * _evaluate(self.dj_fns[k], t, x, u).reshape(J.shape)
        dH = (J @ w[..., None])[..., 0]
        dT = self.tri._derivative(t, x, H, dH)
        Jinv = np.linalg.inv(J)
        A = Jinv @ T @ J
        return Jinv @ (dT @ J + T @ dJ) - Jinv @ dJ @ A


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def _parse_entry(text, symbols, where):
    try:
        return ex.parse(str(text), symbols)
    except ParseError as err:
        raise ParseError(f"{where}: {err}") from None
    except UnknownSymbol as err:
        raise UnknownSymbol(err.name, where=where) from None


def _require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _is_list(value, n):
    return isinstance(value, list) and len(value) == n


def _is_square(rows, n):
    return _is_list(rows, n) and all(_is_list(r, n) for r in rows)


def _number(value, where):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{where} must be a number") from None


def load_system(document: str | dict, name="model") -> QuasilinearSystem:
    """Validate and build a system from a model JSON document."""
    doc = json.loads(document) if isinstance(document, str) else document
    _require(isinstance(doc, dict), "model document must be a JSON object")
    _require("n" in doc and "states" in doc and "A" in doc, "keys n, states, A are required")
    n = doc["n"]
    _require(isinstance(n, int) and n >= 1, "n must be a positive integer")
    states = doc["states"]
    _require(_is_list(states, n) and all(isinstance(s, str) for s in states),
             "states must list n names")
    _require(len(set(states)) == n, "state names must be distinct")
    _require(not (set(states) & set(INDEPENDENT)), "state names t, x are reserved")
    params = doc.get("parameters", {})
    _require(isinstance(params, dict), "parameters must be an object")
    indep = doc.get("independent", list(INDEPENDENT))
    _require(indep == list(INDEPENDENT), "independent variables must be [t, x]")

    symbols = set(INDEPENDENT) | set(states) | set(params)
    subs = {k: _number(v, f"parameter '{k}'") for k, v in params.items()}

    rows = doc["A"]
    _require(_is_list(rows, n), f"A must have {n} rows")
    a_entries = []
    for i, row in enumerate(rows):
        _require(_is_list(row, n), f"A row {i} must have {n} entries")
        a_entries.append([ex.substitute(_parse_entry(v, symbols, f"A[{i}][{j}]"), subs)
                          for j, v in enumerate(row)])

    g_doc = doc.get("g")
    if g_doc is None:
        g_entries = [ex.Const(0.0)] * n
    else:
        _require(_is_list(g_doc, n), f"g must have {n} entries")
        g_entries = [ex.substitute(_parse_entry(v, symbols, f"g[{i}]"), subs)
                     for i, v in enumerate(g_doc)]

    a0_entries = None
    if doc.get("normalize"):
        a0_doc = doc.get("A0")
        _require(a0_doc is not None, "normalize: true requires A0")
        _require(_is_square(a0_doc, n), "A0 must be n x n")
        a0_entries = [[ex.substitute(_parse_entry(v, symbols, f"A0[{i}][{j}]"), subs)
                       for j, v in enumerate(row)] for i, row in enumerate(a0_doc)]

    domain_doc = doc.get("domain", {})
    _require(isinstance(domain_doc, dict), "domain must be an object")
    domain = {}
    for nm, iv in domain_doc.items():
        _require(nm in symbols, f"domain names unknown coordinate '{nm}'")
        _require(isinstance(iv, list) and len(iv) == 2, f"domain['{nm}'] must be [lo, hi]")
        domain[nm] = (_number(iv[0], f"domain['{nm}'][0]"), _number(iv[1], f"domain['{nm}'][1]"))
    for nm in states:
        domain.setdefault(nm, (-1.0, 1.0))

    exclude_doc = doc.get("exclude", [])
    _require(isinstance(exclude_doc, list), "exclude must be a list")
    exclude = [ex.substitute(_parse_entry(v, symbols, f"exclude[{i}]"), subs)
               for i, v in enumerate(exclude_doc)]

    hints = {}
    if "partitionHint" in doc:
        ph = doc["partitionHint"]
        _require(isinstance(ph, dict) and "blocks" in ph, "partitionHint needs 'blocks'")
        _require(isinstance(ph["blocks"], list)
                 and all(isinstance(b, list) and all(isinstance(s, int) for s in b)
                         for b in ph["blocks"]),
                 "partitionHint.blocks must be lists of slot indices")
        hints["partition"] = {"blocks": [list(map(int, b)) for b in ph["blocks"]],
                              "mode": ph.get("mode", "partial")}
    if "transformHint" in doc:
        th = doc["transformHint"]
        _require(_is_list(th, n), "transformHint must have n components")
        hints["transform"] = [ex.substitute(_parse_entry(v, set(states) | set(params), "transformHint"), subs)
                              for v in th]
    if "decoupledHint" in doc:
        dh = doc["decoupledHint"]
        _require(isinstance(dh, dict) and "states" in dh and "A" in dh,
                 "decoupledHint needs states, A")
        _require(isinstance(dh["states"], list), "decoupledHint.states must be a list")
        hints["decoupled"] = dh
    if "inverseHint" in doc:
        _require(_is_list(doc["inverseHint"], n), "inverseHint must have n components")
        u_names = doc.get("decoupledHint", {}).get("states") or [f"U{i+1}" for i in range(n)]
        hints["inverse"] = [ex.substitute(_parse_entry(v, set(u_names) | set(params), "inverseHint"), subs)
                            for v in doc["inverseHint"]]
        hints["inverse_states"] = list(u_names)
    if "autovectorHint" in doc:
        av = doc["autovectorHint"]
        _require(isinstance(av, dict) and "right" in av and "eigenvalues" in av,
                 "autovectorHint needs right, eigenvalues")
        _require(_is_square(av["right"], n), "autovectorHint.right must have n vectors")
        _require(_is_list(av["eigenvalues"], n), "autovectorHint.eigenvalues must have n entries")
        hints["autovectors"] = {
            "eigenvalues": [ex.substitute(_parse_entry(v, symbols, "autovectorHint.eigenvalues"), subs)
                            for v in av["eigenvalues"]],
            "right": [[ex.substitute(_parse_entry(v, symbols, "autovectorHint.right"), subs)
                       for v in vec] for vec in av["right"]],
        }
        if av.get("left"):
            _require(_is_square(av["left"], n), "autovectorHint.left must have n vectors")
            hints["autovectors"]["left"] = [
                [ex.substitute(_parse_entry(v, symbols, "autovectorHint.left"), subs) for v in vec]
                for vec in av["left"]]

    return QuasilinearSystem(n, states, a_entries, g_entries, params, domain,
                             exclude, hints, a0_entries, name=name)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def symbolic_matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[ex.Const(0.0)] * p for _ in range(n)]
    for i in range(n):
        for j in range(p):
            acc = ex.Const(0.0)
            for k in range(m):
                acc = ex.fold_add(acc, ex.fold_mul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def conjugate_system(triangular: QuasilinearSystem, h_map, inverse_map,
                     u_names, u_domain, symbolic=False,
                     name="conjugated") -> QuasilinearSystem:
    """Change variables u = h(U), U = H(u) on a system written in U.

    Returns the system satisfied by u; its analysis with the known partition
    is the oracle for the condition checker.  `h_map` entries are expressions
    in the triangular system's states, `inverse_map` entries in `u_names`.
    The result evaluates J^-1 T(H) J numerically (J = grad H); with
    `symbolic` it carries expression entries instead, as
    (A0_T(H) J) u_t + (A_T(H) J) u_x = g_T(H), which the A0 solve of the
    evaluation cores normalizes.
    """
    n = triangular.n
    if n > 6:
        raise TooLarge("conjugation supported up to n = 6")
    u_names = list(u_names)
    backend = _ConjugatedBackend(triangular, inverse_map, u_names)
    h_fn = ex.compile_expression(h_map, list(INDEPENDENT) + triangular.states)

    lows = np.array([u_domain[nm][0] for nm in u_names])
    highs = np.array([u_domain[nm][1] for nm in u_names])
    pts = lows + unit_samples(SamplePlan(count=INVERSE_CHECK_COUNT, seed=7), n) * (highs - lows)
    with np.errstate(all="ignore"):
        J, H = backend._jh(0.0, 0.0, pts)
        back = _evaluate(h_fn, 0.0, 0.0, H)
        err = np.max(np.abs(back - pts))
        if not np.all(np.isfinite(back)) or err > INVERSE_CHECK_TOL:
            raise NotInverse(f"h(H(u)) differs from u by {err:.3e}")
        if np.min(np.abs(np.linalg.det(J))) < 1e-8:
            raise SingularJacobian("det grad H vanishes on the sampled domain")

    domain = {nm: u_domain[nm] for nm in u_names}
    domain.setdefault("t", triangular.domain.get("t", (0.0, 1.0)))
    domain.setdefault("x", triangular.domain.get("x", (0.0, 1.0)))

    if symbolic:
        at_H = dict(zip(triangular.states, inverse_map))

        def composed(rows):
            return [[ex.substitute(e, at_H) for e in row] for row in rows]

        J_exprs = backend.j_entries
        a0 = J_exprs if triangular.a0 is None else symbolic_matmul(composed(triangular.a0), J_exprs)
        g = None if triangular.homogeneous else composed([triangular.g])[0]
        return QuasilinearSystem(n, u_names, symbolic_matmul(composed(triangular.a), J_exprs),
                                 g, {}, domain, a0_entries=a0, name=name)

    zero = ex.Const(0.0)
    sys_out = QuasilinearSystem(n, u_names, [[zero] * n for _ in range(n)],
                                None, {}, domain, name=name)
    sys_out._conjugated = backend
    return sys_out
