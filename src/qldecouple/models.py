"""Built-in example systems and synthetic generators for oracle testing.

Three physical models ship with the package: barotropic Euler flow,
isentropic Euler flow, and a travelling threadline.  The synthetic builder
manufactures block-triangular systems with a known invertible change of
variables; conjugating them yields systems whose decoupling analysis must
succeed with the known partition, which is the soundness oracle for the
condition checker.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang as ex
from .conditions import PartitionScheme
from .errors import RetryExhausted, SchemaError
from .system import QuasilinearSystem, conjugate_system, load_system


@dataclass
class ModelEntry:
    name: str
    document: dict
    system: QuasilinearSystem
    extras: dict = field(default_factory=dict)

    def to_json(self, **kw):
        return json.dumps(self.document, sort_keys=True, **kw)


def _entry(name, document, extras=None):
    return ModelEntry(name, document, load_system(document, name=name), extras or {})


def _s(e):
    return ex.to_string(e)


# ---------------------------------------------------------------------------
# barotropic Euler: states (rho, v), A = [[v, rho], [p'(rho)/rho, v]]
# ---------------------------------------------------------------------------

def build_barotropic(pressure="p0*rho^3", parameters=None, domain=None) -> ModelEntry:
    parameters = dict(parameters or {"p0": 1.0})
    domain = domain or {"rho": [0.5, 2.0], "v": [-1.0, 1.0]}
    symbols = {"rho"} | set(parameters)
    p = ex.parse(pressure, symbols)
    dp = ex.differentiate(p, "rho")
    d2p = ex.differentiate(dp, "rho")

    doc = {
        "n": 2,
        "states": ["rho", "v"],
        "parameters": parameters,
        "A": [["v", "rho"], [_s(dp / ex.Sym("rho")), "v"]],
        "domain": domain,
        "exclude": [_s(-dp)],  # hyperbolic only where p'(rho) > 0
        "autovectorHint": {
            "eigenvalues": [f"v + sqrt({_s(dp)})", f"v - sqrt({_s(dp)})"],
            "right": [["rho", f"sqrt({_s(dp)})"], ["rho", f"-sqrt({_s(dp)})"]],
            "left": [[f"sqrt({_s(dp)})", "rho"], [f"sqrt({_s(dp)})", "-rho"]],
        },
        "partitionHint": {"blocks": [[0], [1]], "mode": "full"},
    }

    # closed-form transform exists exactly for the cubic law p = p0 rho^3
    # (equivalently rho p'' - 2 p' = 0 with p' = 3 p0 rho^2)
    rhos = np.linspace(domain["rho"][0], domain["rho"][1], 21)
    binding = dict(parameters)
    cubic = True
    for r in rhos:
        binding["rho"] = float(r)
        try:
            resid = r * ex.evaluate(d2p, binding) - 2.0 * ex.evaluate(dp, binding)
            is_cubic = abs(ex.evaluate(p, binding)
                           - parameters.get("p0", 0.0) * r**3) <= 1e-12 * (1 + abs(r) ** 3)
        except Exception:
            cubic = False
            break
        if abs(resid) > 1e-9 * (1.0 + abs(ex.evaluate(dp, binding))) or not is_cubic:
            cubic = False
            break
    if cubic:
        c = "sqrt(3*p0)"
        doc["transformHint"] = [f"v + {c}*rho", f"v - {c}*rho"]
        doc["inverseHint"] = [f"(U1 - U2)/(2*{c})", "(U1 + U2)/2"]
        p0 = parameters["p0"]
        lo_r, hi_r = domain["rho"]
        lo_v, hi_v = domain["v"]
        s = math.sqrt(3.0 * p0)
        pad = 0.1 * (s * hi_r + abs(hi_v))
        ubox = [lo_v - s * hi_r - pad, hi_v + s * hi_r + pad]
        doc["decoupledHint"] = {
            "states": ["U1", "U2"],
            "A": [["U1", "0"], ["0", "U2"]],
            "domain": {"U1": ubox, "U2": ubox},
            "blocks": [[0], [1]],
        }
    return _entry("barotropic", doc)


# ---------------------------------------------------------------------------
# isentropic Euler: states (rho, v, s), pressure p(rho, s) = p0 rho^3 s^2 + f(s)
# ---------------------------------------------------------------------------

def build_isentropic(f="s", parameters=None, domain=None) -> ModelEntry:
    parameters = dict(parameters or {"p0": 1.0})
    domain = domain or {"rho": [0.5, 2.0], "v": [-1.0, 1.0], "s": [0.5, 2.0]}
    fsym = ex.parse(f, {"s"} | set(parameters))
    p0, rho, s = ex.Sym("p0"), ex.Sym("rho"), ex.Sym("s")
    p = p0 * rho**3 * s**2 + fsym
    dp_rho, dp_s = ex.differentiate(p, ["rho", "s"])
    c2 = _s(dp_rho)

    doc = {
        "n": 3,
        "states": ["rho", "v", "s"],
        "parameters": parameters,
        "A": [
            ["v", "rho", "0"],
            [_s(dp_rho / rho), "v", _s(dp_s / rho)],
            ["0", "0", "v"],
        ],
        "domain": domain,
        "exclude": [_s(-dp_rho)],
        # the lambda = v eigenvector is (dp/ds, 0, -dp/drho); third components
        # of the acoustic left vectors follow from biorthogonality
        "autovectorHint": {
            "eigenvalues": [f"v + sqrt({c2})", f"v - sqrt({c2})", "v"],
            "right": [
                ["rho", f"sqrt({c2})", "0"],
                ["rho", f"-sqrt({c2})", "0"],
                [_s(dp_s), "0", _s(-dp_rho)],
            ],
            "left": [
                [f"sqrt({c2})", "rho", f"({_s(dp_s)})/sqrt({c2})"],
                [f"sqrt({c2})", "-rho", f"({_s(dp_s)})/sqrt({c2})"],
                ["0", "0", "1"],
            ],
        },
        "partitionHint": {"blocks": [[0], [1], [2]], "mode": "partial"},
        "transformHint": ["v + sqrt(3*p0)*rho*s", "v - sqrt(3*p0)*rho*s", "s"],
        "inverseHint": ["(U1 - U2)/(2*sqrt(3*p0)*U3)", "(U1 + U2)/2", "U3"],
    }
    return _entry("isentropic", doc, extras={"f": f})


# ---------------------------------------------------------------------------
# travelling threadline: states (rho, Vx, v, eps), tension T(m), m = rho/sqrt(1+eps^2)
# ---------------------------------------------------------------------------

def build_threadline(k=1.0, tension="k/m", domain=None) -> ModelEntry:
    parameters = {"k": float(k)}
    domain = domain or {"rho": [0.5, 2.0], "Vx": [-1.0, 1.0],
                        "v": [-1.0, 1.0], "eps": [-0.5, 0.5]}
    Tm = ex.parse(tension, {"m", "k"})
    dTm = ex.differentiate(Tm, "m")
    rho, eps = ex.Sym("rho"), ex.Sym("eps")
    one_eps2 = ex.Const(1.0) + eps**2
    m_expr = rho * one_eps2 ** ex.Const(-0.5)
    T = ex.substitute(Tm, {"m": m_expr})
    Tp = ex.substitute(dTm, {"m": m_expr})

    # inverse-linear tension: T' + T/m == 0, the coupling entry vanishes and
    # the matrix is block lower(2,2)-triangular as written
    inv_linear = True
    for mv in np.linspace(0.4, 2.5, 15):
        try:
            val = ex.evaluate(dTm, {"m": float(mv), "k": float(k)}) \
                + ex.evaluate(Tm, {"m": float(mv), "k": float(k)}) / float(mv)
        except Exception:
            inv_linear = False
            break
        if abs(val) > 1e-10 * (1.0 + abs(ex.evaluate(Tm, {"m": float(mv), "k": float(k)}))):
            inv_linear = False
            break

    if inv_linear:
        doc = {
            "n": 4,
            "states": ["rho", "Vx", "v", "eps"],
            "parameters": parameters,
            "A": [
                ["Vx", "rho", "0", "0"],
                ["k/rho^3", "Vx", "0", "0"],
                ["0", "0", "2*Vx", "Vx^2 - k/rho^2"],
                ["0", "0", "-1", "0"],
            ],
            "domain": domain,
            "autovectorHint": {
                "eigenvalues": ["Vx + sqrt(k)/rho", "Vx - sqrt(k)/rho",
                                "Vx + sqrt(k)/rho", "Vx - sqrt(k)/rho"],
                # wave families 3,4 use the block-adapted vectors (vanishing
                # upper components), valid because the coupling entry is zero
                "right": [
                    ["rho", "sqrt(k)/rho", "0", "0"],
                    ["rho", "-sqrt(k)/rho", "0", "0"],
                    ["0", "0", "-(Vx + sqrt(k)/rho)", "1"],
                    ["0", "0", "-(Vx - sqrt(k)/rho)", "1"],
                ],
            },
            "partitionHint": {"blocks": [[0, 1], [2, 3]], "mode": "partial"},
            "transformHint": ["rho", "Vx", "v", "eps"],
            "inverseHint": ["U1", "U2", "U3", "U4"],
            "decoupledHint": {
                "states": ["U1", "U2", "U3", "U4"],
                "A": [
                    ["U2", "U1", "0", "0"],
                    [f"{k}/U1^3", "U2", "0", "0"],
                    ["0", "0", "2*U2", f"U2^2 - {k}/U1^2"],
                    ["0", "0", "-1", "0"],
                ],
                "domain": {"U1": domain["rho"], "U2": domain["Vx"],
                           "U3": domain["v"], "U4": domain["eps"]},
                "blocks": [[0, 1], [2, 3]],
            },
        }
        return _entry("threadline", doc)

    a21 = ex.fold_neg(Tp) / (rho * one_eps2)
    a24 = (eps / one_eps2**2) * (Tp + T / m_expr)
    a34 = ex.Sym("Vx") ** 2 - T / (m_expr * one_eps2)
    doc = {
        "n": 4,
        "states": ["rho", "Vx", "v", "eps"],
        "parameters": parameters,
        "A": [
            ["Vx", "rho", "0", "0"],
            [_s(a21), "Vx", "0", _s(a24)],
            ["0", "0", "2*Vx", _s(a34)],
            ["0", "0", "-1", "0"],
        ],
        "domain": domain,
        # hyperbolicity needs T' <= 0 and T >= 0
        "exclude": [_s(Tp), _s(ex.fold_neg(T))],
        "partitionHint": {"blocks": [[0, 1], [2, 3]], "mode": "partial"},
    }
    return _entry("threadline", doc, extras={"tension": tension})


# ---------------------------------------------------------------------------
# synthetic block-triangular systems + conjugation (checker oracle)
# ---------------------------------------------------------------------------

def _random_poly(rng, var_names, amplitude, bias=0.0):
    """Degree <= 2 polynomial with coefficient budget |poly| <= amplitude
    on the working box |U| <= 2."""
    terms = [ex.Const(1.0)]
    for nm in var_names:
        terms.append(ex.Sym(nm))
        terms.append(ex.Sym(nm) * ex.Sym(nm))
    coefs = rng.uniform(-1.0, 1.0, size=len(terms))
    weights = np.array([1.0] + [2.0, 4.0] * len(var_names))
    budget = float(np.sum(np.abs(coefs) * weights))
    if budget == 0.0:
        return ex.Const(bias)
    scale = amplitude / budget
    out = ex.Const(bias)
    for cf, term in zip(coefs, terms):
        out = out + float(cf * scale) * term
    return out


def build_synthetic_triangular(seed, n, block_sizes, with_source=False,
                               off_block_defect=0.0, max_retries=50):
    """Random block-triangular system in U, a random invertible map, and the
    conjugated system in u.

    Row-block i entries depend only on the variables of blocks 1..i; diagonal
    entries carry well separated constant offsets so all eigenvalues are real,
    distinct and block-sorted on the box (disjoint Gershgorin disks).  The map
    is a unipotent triangular polynomial map composed with a random linear
    map, so the closed-form inverse is polynomial as well.
    """
    if sum(block_sizes) != n:
        raise SchemaError("block sizes must sum to n")
    rng = np.random.default_rng(int(seed))
    u_names = [f"u{i+1}" for i in range(n)]
    U_names = [f"U{i+1}" for i in range(n)]

    scheme = PartitionScheme.from_sizes(block_sizes)
    blocks = scheme.blocks

    def lower_vars(bi):
        return [U_names[s] for s in scheme.allowed(bi)]

    zero = ex.Const(0.0)
    entries = [[zero] * n for _ in range(n)]
    for bi, blk in enumerate(blocks):
        deps = lower_vars(bi)
        for r in blk:
            for c in scheme.allowed(bi):
                if r == c:
                    entries[r][c] = _random_poly(rng, deps, 0.45, bias=4.0 * r)
                else:
                    entries[r][c] = _random_poly(rng, deps, 0.28)

    if off_block_defect:
        # inject a dependence on a later-block variable into an allowed entry
        candidates = [(r, c, bi) for bi, blk in enumerate(blocks[:-1])
                      for r in blk for c in scheme.allowed(bi)]
        r, c, bi = candidates[rng.integers(0, len(candidates))]
        later = [U_names[s] for b in blocks[bi + 1:] for s in b]
        bad = later[rng.integers(0, len(later))]
        entries[r][c] = entries[r][c] + float(off_block_defect) * ex.Sym(bad)

    g_entries = None
    if with_source:
        g_entries = [zero] * n
        for bi, blk in enumerate(blocks):
            deps = lower_vars(bi)
            for r in blk:
                g_entries[r] = _random_poly(rng, deps, 0.5)

    u_domain = {nm: (-0.8, 0.8) for nm in u_names}
    tri_domain = {nm: (-4.0, 4.0) for nm in U_names}

    for attempt in range(max_retries):
        # unipotent part: U_i = u_i + q_i(u_1..u_{i-1}); linear part P
        q = [zero]
        for i in range(1, n):
            q.append(_random_poly(rng, u_names[:i], 0.3))
        P = np.eye(n) + 0.25 * rng.uniform(-1.0, 1.0, size=(n, n))
        if abs(np.linalg.det(P)) < 0.4:
            continue
        Pinv = np.linalg.inv(P)
        N_map = [ex.Sym(u_names[i]) + q[i] for i in range(n)]
        H_map = []
        for i in range(n):
            acc = zero
            for j in range(n):
                acc = acc + float(P[i, j]) * N_map[j]
            H_map.append(acc)
        # inverse: w = P^-1 U, then u_i = w_i - q_i(u_1..u_{i-1}) recursively
        w_exprs = []
        for i in range(n):
            acc = zero
            for j in range(n):
                acc = acc + float(Pinv[i, j]) * ex.Sym(U_names[j])
            w_exprs.append(acc)
        h_map = []
        for i in range(n):
            sub = {u_names[j]: h_map[j] for j in range(i)}
            h_map.append(w_exprs[i] - ex.substitute(q[i], sub))

        tri = QuasilinearSystem(n, U_names, entries, g_entries, {}, tri_domain,
                                name=f"triangular-{seed}")
        try:
            conj = conjugate_system(tri, h_map, H_map, u_names, u_domain,
                                    name=f"conjugated-{seed}")
        except Exception:
            continue
        partition = {"blocks": blocks, "mode": "partial"}
        conj.hints["partition"] = partition
        entry = ModelEntry(f"synthetic-{seed}", document=None, system=conj,
                           extras={"triangular": tri, "h": h_map, "H": H_map,
                                   "blocks": blocks, "u_names": u_names,
                                   "U_names": U_names})
        return tri, {"h": h_map, "H": H_map}, entry
    raise RetryExhausted(f"no valid synthetic construction after {max_retries} tries")


def _shared_definitions(rows):
    """Names d1, d2, ... (zero-padded, so that sorted keys keep their order)
    for every inner node used at least twice in the rows of entries, each
    after the nodes it uses, and their definitions' texts."""
    counts = ex.use_counts([e for row in rows for e in row])
    shared = [e for e, k in counts.items() if k > 1 and isinstance(e, (ex.Un, ex.Bin))]
    width = len(str(len(shared)))
    names = {e: f"d{i:0{width}d}" for i, e in enumerate(shared, 1)}
    return names, {names[e]: ex.to_string(e, names) for e in shared}


def emit_synthetic_document(seed, n, block_sizes, with_source=False,
                            off_block_defect=0.0):
    """Printable conjugated model JSON, written as
    (grad H) u_t + (T(H) grad H) u_x = g_T(H) under `"normalize": true`.
    Every inner node of A0, A and g used at least twice is written once, as
    a definition; the names d1, d2, ... cannot clash with the states u1, u2,
    ..., t, x or a function."""
    tri, maps, entry = build_synthetic_triangular(seed, n, block_sizes,
                                                  with_source, off_block_defect)
    conj = conjugate_system(tri, maps["h"], maps["H"],
                            entry.extras["u_names"],
                            {nm: entry.system.domain[nm] for nm in entry.extras["u_names"]},
                            symbolic=True)
    rows = conj.a0 + conj.a + ([] if tri.homogeneous else [conj.g])
    names, definitions = _shared_definitions(rows)

    def text(e):
        return names.get(e) or ex.to_string(e, names)

    doc = {
        "n": n,
        "states": entry.extras["u_names"],
        "normalize": True,
        "definitions": definitions,
        "A0": [[text(e) for e in row] for row in conj.a0],
        "A": [[text(e) for e in row] for row in conj.a],
        "domain": {nm: list(entry.system.domain[nm]) for nm in entry.extras["u_names"]},
        "partitionHint": {"blocks": entry.extras["blocks"], "mode": "partial"},
        "transformHint": [_s(e) for e in maps["H"]],
        "inverseHint": [_s(e) for e in maps["h"]],
    }
    if not tri.homogeneous:
        doc["g"] = [text(e) for e in conj.g]
    return doc


def decoupled_system(document) -> QuasilinearSystem:
    """Build the hierarchical system described by a model's decoupledHint."""
    dh = document.get("decoupledHint")
    if not dh:
        raise SchemaError("model carries no decoupledHint")
    doc = {
        "n": len(dh["states"]),
        "states": list(dh["states"]),
        "A": dh["A"],
        "parameters": document.get("parameters", {}),
        "domain": dict(dh.get("domain", {})),
    }
    if "g" in dh:
        doc["g"] = dh["g"]
    parent_domain = document.get("domain", {})
    for nm in ("t", "x"):
        if nm in parent_domain:
            doc["domain"].setdefault(nm, parent_domain[nm])
    if "blocks" in dh:
        doc["partitionHint"] = {"blocks": dh["blocks"], "mode": "partial"}
    return load_system(doc, name="decoupled")


REGISTRY = {
    "barotropic": build_barotropic,
    "isentropic": build_isentropic,
    "threadline": build_threadline,
}


def build(name, **kwargs) -> ModelEntry:
    if name not in REGISTRY:
        raise SchemaError(f"unknown model '{name}'; known: {sorted(REGISTRY)}")
    return REGISTRY[name](**kwargs)
