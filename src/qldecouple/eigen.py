"""Pointwise eigenstructure with clustering, Jordan chains and complex pairs.

The condition checker differentiates eigenvector FIELDS by finite
differences, so vectors computed at nearby points must belong to one smooth
field.  That is what `align_frames` provides: it maps a freshly computed
frame onto the normalization of a reference frame (orthogonal Procrustes
inside each eigenspace, then a rescale anchored at the reference pivot
component).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang as ex
from .errors import DomainError, HintInconsistent, IllConditioned, MismatchedSignature
from .system import _evaluate

COND_LIMIT = 1e8
RANK_TOL = 1e-8
CLUSTER_RTOL = 1e-6       # cluster width relative to 1 + spectral radius
HINT_RESIDUAL_TOL = 1e-8  # hinted eigenvector residual relative to |A| (1 + |v|)

KIND_EIGEN = "eigen"
KIND_COMPLEX_RE = "complexRe"
KIND_COMPLEX_IM = "complexIm"


def generalized_kind(order):
    return f"generalized-rank-{order}"


@dataclass
class Cluster:
    value: complex
    alg_mult: int
    slots: list
    is_complex: bool = False


@dataclass
class Frame:
    """Ordered autovector slots spanning R^n."""

    values: np.ndarray          # complex (n,)
    rights: np.ndarray          # (n, n), row per slot
    lefts: np.ndarray           # (n, n), row per slot
    kinds: list
    clusters: list              # list of Cluster over slot indices
    point: tuple = None

    @property
    def n(self):
        return self.rights.shape[0]

    def signature(self):
        return tuple((c.alg_mult, c.is_complex) for c in self.clusters)

    def cluster_of_slot(self, slot):
        for c in self.clusters:
            if slot in c.slots:
                return c
        raise KeyError(slot)


def _pivot_index(v):
    return int(np.argmax(np.abs(v)))


def _pivot_normalize(v):
    p = v[_pivot_index(v)]
    if p == 0:
        raise IllConditioned("zero autovector")
    return v / p


def _null_basis(B, scale):
    """Rows spanning the numerical null space of B."""
    _, s, vh = np.linalg.svd(B)
    tol = RANK_TOL * max(1.0, scale)
    return vh[s <= tol] if s.size else vh


def _cluster_eigenvalues(w, ctol):
    """Union-find clustering of eigenvalues by pairwise distance <= ctol."""
    n = len(w)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) <= ctol:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def spectrum_at(sys_, t, x, u) -> Frame:
    """Eigenvalues clustered with right/left autovectors at one point.

    Jordan chains are appended when the geometric multiplicity falls short;
    complex-conjugate pairs contribute real/imaginary part vectors.
    """
    A = sys_.eval_matrix(t, x, u)
    n = sys_.n
    w, V = np.linalg.eig(A)
    rho = float(np.max(np.abs(w))) if n else 0.0
    ctol = CLUSTER_RTOL * (1.0 + rho)
    scale = max(1.0, float(np.linalg.norm(A)))

    # cluster on (Re, |Im|) so conjugate pairs always share a group
    w_half = w.real + 1j * np.abs(w.imag)
    groups = _cluster_eigenvalues(w_half, ctol)
    # deterministic cluster order: ascending (Re, |Im|)
    reps = [complex(np.mean(w_half[g])) for g in groups]
    order = sorted(range(len(groups)), key=lambda k: (reps[k].real, abs(reps[k].imag)))

    values, rights, kinds, clusters = [], [], [], []
    for k in order:
        g = sorted(groups[k], key=lambda i: (w[i].real, w[i].imag))
        rep = reps[k]
        mult = len(g)
        start = len(values)
        if abs(rep.imag) <= ctol:
            lam = rep.real
            B = A - lam * np.eye(n)
            if mult == 1:
                vec = V[:, g[0]]
                if np.max(np.abs(vec.imag)) > 1e-8 * np.max(np.abs(vec)):
                    raise IllConditioned("complex eigenvector for a real eigenvalue")
                vecs = [_pivot_normalize(vec.real)]
                slot_kinds = [KIND_EIGEN]
            else:
                basis = _null_basis(B, scale)
                if basis.shape[0] == 0:
                    raise IllConditioned(f"no eigenvector found for eigenvalue {lam:.6g}")
                heads = [_pivot_normalize(b) for b in basis[:mult]]
                vecs = list(heads)
                slot_kinds = [KIND_EIGEN] * len(vecs)
                # raise chains by successive least-squares solves (A - lam I) w' = w
                for head in heads:
                    prev = head
                    chain_order = 2
                    while len(vecs) < mult and chain_order <= n:
                        wv, *_ = np.linalg.lstsq(B, prev, rcond=None)
                        if np.linalg.norm(B @ wv - prev) > 1e-6 * (1.0 + np.linalg.norm(prev)):
                            break
                        vecs.append(wv)
                        slot_kinds.append(generalized_kind(chain_order))
                        prev = wv
                        chain_order += 1
                    if len(vecs) >= mult:
                        break
                if len(vecs) < mult:
                    raise IllConditioned(
                        f"could not complete a Jordan basis for eigenvalue {lam:.6g}")
            for vec, kd in zip(vecs, slot_kinds):
                values.append(complex(lam))
                rights.append(np.asarray(vec, dtype=float))
                kinds.append(kd)
            clusters.append(Cluster(complex(lam), mult, list(range(start, start + mult))))
        else:
            # complex group: members come in conjugate pairs
            pos = [i for i in g if w[i].imag > 0]
            if 2 * len(pos) != mult:
                raise IllConditioned("unpaired complex eigenvalues")
            lam = complex(np.mean([w[i] for i in pos]))
            for i in pos:
                vec = _pivot_normalize(V[:, i])
                values.extend([lam, lam])
                rights.append(vec.real.astype(float))
                rights.append(vec.imag.astype(float))
                kinds.extend([KIND_COMPLEX_RE, KIND_COMPLEX_IM])
            clusters.append(Cluster(lam, mult, list(range(start, start + mult)),
                                    is_complex=True))

    R = np.column_stack(rights)
    cond = float(np.linalg.cond(R))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(f"autovector matrix condition number {cond:.3g}")
    L = np.linalg.inv(R)

    return Frame(values=np.array(values), rights=np.array(rights), lefts=L,
                 kinds=kinds, clusters=clusters, point=(t, x, tuple(u)))


def _cond_ok(R):
    """Row mask of a stack (N, n, n): condition number finite and <= COND_LIMIT."""
    cond = np.linalg.cond(R)
    return np.isfinite(cond) & (cond <= COND_LIMIT)


def _row_norms(V):
    """Euclidean norms of the rows of V (N, m), each with the dot product
    np.linalg.norm takes of one vector, so each equals norm(V[k])."""
    V = np.ascontiguousarray(V)
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def _simple_spectra(sys_, t, x, U, references=None):
    """The rows of U (N, n) whose spectrum is real and simple, from one
    batched eig, with spectrum_at's gates (finite A, real eigenvectors,
    nonzero pivots, condition number) and, given the rights (N, slot,
    component) of reference frames with real simple spectra, align_frames'
    (kept pivots, condition number of the rescaled frame).  Returns (rows,
    values, vecs): the eigenvalues in ascending order, as spectrum_at gives
    them, and the pivot-normalized right vectors (row, slot, component),
    rescaled against the references when given."""
    N, n = len(U), sys_.n
    rows = np.flatnonzero(np.isfinite(U).all(axis=1))
    t, x = np.broadcast_to(t, N)[rows], np.broadcast_to(x, N)[rows]
    try:
        A = sys_.eval_matrix(t, x, U[rows])
    except (DomainError, np.linalg.LinAlgError):
        return rows[:0], np.empty((0, n)), np.empty((0, n, n))
    finite = np.isfinite(A).all(axis=(1, 2))
    rows, A = rows[finite], A[finite]
    w, V = np.linalg.eig(A)
    ctol = CLUSTER_RTOL * (1.0 + np.max(np.abs(w), axis=1))
    w_half = w.real + 1j * np.abs(w.imag)
    gaps = np.abs(w_half[:, :, None] - w_half[:, None, :]) + np.diag(np.full(n, np.inf))
    simple = ((np.abs(w.imag) <= ctol[:, None]).all(axis=1)
              & (gaps.min(axis=(1, 2)) > ctol))
    rows, w, V = rows[simple], w[simple], V[simple]

    order = np.argsort(w.real, axis=1)
    vecs = np.swapaxes(np.take_along_axis(V, order[:, None, :], axis=2), 1, 2)
    real = (np.abs(vecs.imag).max(axis=2) <= 1e-8 * np.abs(vecs).max(axis=2)).all(axis=1)
    vecs = vecs.real
    pivots = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=2)[:, :, None], axis=2)
    ok = real & (pivots != 0).all(axis=(1, 2))
    # the cluster mean of spectrum_at, whose real part is w.real + 0.0
    values = np.take_along_axis(w.real, order, axis=1)[ok] + 0.0
    rows, vecs = rows[ok], vecs[ok] / pivots[ok]
    stack, ok = vecs, np.ones(len(rows), dtype=bool)
    if references is not None:
        vecs, ok = _rescale(vecs, references[rows])
        stack = np.concatenate([stack, vecs])
    # the raw and the rescaled condition numbers in one call; without
    # references both halves are the raw one
    cond_ok = _cond_ok(np.swapaxes(stack, 1, 2))
    ok &= cond_ok[:len(rows)] & cond_ok[len(stack) - len(rows):]
    return rows[ok], values[ok], vecs[ok]


def _rescale(vecs, references):
    """The rescale of align_frames on a stack (N, slot, component): each
    vector scaled so its component at the reference's pivot index matches
    the reference.  Returns the rescaled vectors and the mask of rows that
    kept every pivot."""
    i_ref = np.abs(references).argmax(axis=2)[:, :, None]
    denom = np.take_along_axis(vecs, i_ref, axis=2)[:, :, 0]
    ok = (np.abs(denom) >= 1e-12 * (1.0 + np.abs(vecs).max(axis=2))).all(axis=1)
    scale = np.take_along_axis(references, i_ref, axis=2)[:, :, 0] / np.where(ok[:, None], denom, 1.0)
    return vecs * scale[:, :, None], ok


def simple_frames_batch(sys_, t, x, U, references=None):
    """Frames at the rows of U (N, n) whose spectrum is real and simple, from
    one batched eig: what spectrum_at gives there or, given the rights
    (N, slot, component) of reference frames with real simple spectra, what
    align_frames against them gives, with their gates (_simple_spectra).  t
    and x are scalars or follow the rows.

    Returns (values, rights, lefts, done): values (N, n) complex, rights and
    lefts (N, slot, component) in ascending eigenvalue order.  Rows not
    marked done are NaN and left to the per-point path, which handles them
    or raises.
    """
    N, n = len(U), sys_.n
    values, done = np.full((N, n), np.nan, dtype=complex), np.zeros(N, dtype=bool)
    rights, lefts = np.full((N, n, n), np.nan), np.full((N, n, n), np.nan)
    rows, vals, vecs = _simple_spectra(sys_, t, x, U, references)
    values[rows], rights[rows], done[rows] = vals, vecs, True
    lefts[rows] = np.linalg.inv(np.swapaxes(vecs, 1, 2))
    return values, rights, lefts, done


def align_frames(reference: Frame, raw: Frame) -> Frame:
    """Express a freshly computed frame in the reference's normalization.

    The k-th reference cluster is matched to the k-th raw cluster, both in the
    ascending order spectrum_at gives; their multiplicity patterns must agree.
    Within a matched eigenspace of dimension d the raw basis is rotated onto
    the reference (orthogonal Procrustes; a sign flip when d = 1) and each
    vector is rescaled so its component at the reference pivot index matches
    the reference.  Left vectors are re-solved for biorthogonality.
    """
    if reference.signature() != raw.signature():
        raise MismatchedSignature(f"multiplicity pattern changed: {reference.signature()} "
                                  f"vs {raw.signature()}")
    n = reference.n
    rights = np.empty((n, n))
    values = np.empty(n, dtype=complex)
    clusters = []
    for rc, cc in zip(reference.clusters, raw.clusters):
        Xraw = raw.rights[cc.slots]
        if len(rc.slots) > 1:
            U, _, Vt = np.linalg.svd(reference.rights[rc.slots] @ Xraw.T)
            Xraw = (U @ Vt) @ Xraw
        rights[rc.slots] = Xraw
        values[rc.slots] = raw.values[cc.slots]
        clusters.append(Cluster(cc.value, rc.alg_mult, list(rc.slots), rc.is_complex))
    rights, kept = _rescale(rights[None], reference.rights[None])
    if not kept[0]:
        raise MismatchedSignature("aligned vector lost its pivot component")
    rights = rights[0]

    R = rights.T
    cond = float(np.linalg.cond(R))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(f"aligned frame condition number {cond:.3g}")
    lefts = np.linalg.inv(R)
    return Frame(values=values, rights=rights, lefts=lefts, kinds=list(reference.kinds),
                 clusters=clusters, point=raw.point)


class AnalyticFrameField:
    """Frame field evaluated from model-file autovector hint expressions."""

    def __init__(self, sys_):
        hints = sys_.hints.get("autovectors")
        if not hints:
            raise HintInconsistent("model supplies no autovector hints")
        self.sys = sys_
        self.n = sys_.n
        order = sys_.arg_order
        self.value_fn = ex.compile_expression(hints["eigenvalues"], order)
        self.right_fn = ex.compile_expression([c for vec in hints["right"] for c in vec], order)
        self.left_fn = (ex.compile_expression([c for vec in hints["left"] for c in vec], order)
                        if "left" in hints else None)
        self.value_exprs = hints["eigenvalues"]
        self._grad_cache = {}

    def value_gradient_fn(self, slot):
        """Compiled exact state-gradient of the hinted eigenvalue field."""
        if slot not in self._grad_cache:
            grads = [ex.differentiate(self.value_exprs[slot], nm) for nm in self.sys.states]
            self._grad_cache[slot] = ex.compile_expression(grads, self.sys.arg_order)
        return self._grad_cache[slot]

    def _hint_batch(self, t, x, U):
        """Hinted values (N, n) and rights (N, slot, component) at the rows
        of U (N, n), and the mask of rows where both are finite."""
        N, n = U.shape
        with np.errstate(all="ignore"):
            vals = np.ascontiguousarray(_evaluate(self.value_fn, t, x, U))
            rights = _evaluate(self.right_fn, t, x, U)
        rights = np.ascontiguousarray(rights).reshape(N, n, n)
        return vals, rights, np.isfinite(vals).all(axis=1) & np.isfinite(rights).all(axis=(1, 2))

    def rights_batch(self, t, x, U):
        """Hinted right autovectors at the rows of U (N, n) as (N, slot,
        component); NaN in rows frame_at(check=False) rejects: non-finite
        hints, non-finite A, or condition number above COND_LIMIT."""
        _, rights, ok = self._hint_batch(t, x, U)
        with np.errstate(all="ignore"):
            ok &= np.isfinite(self.sys.eval_matrix(t, x, U)).all(axis=(1, 2))
        ok[ok] = _cond_ok(np.swapaxes(rights[ok], 1, 2))
        rights[~ok] = np.nan
        return rights

    def frames_batch(self, t, x, U, check=True):
        """frame_at at the rows of U (N, n), t and x scalars or following the
        rows.  Returns (values, rights, lefts, errors): values (N, n) complex,
        rights and lefts (N, slot, component), and errors[k] what frame_at
        raises at row k, or None; the arrays are NaN in the rows with an
        error.  The gates run in this order: finite hints, finite A (the
        DomainError eval_matrix raises at that state), with `check` the right
        residuals, the condition number, and with `check` the residuals of the
        hinted lefts; without left hints the lefts invert the rights."""
        N, n = U.shape
        t, x = np.broadcast_to(t, N), np.broadcast_to(x, N)
        vals, rights, ok = self._hint_batch(t, x, U)
        errors = [None if k else HintInconsistent("hint expressions evaluate non-finite")
                  for k in ok]
        with np.errstate(all="ignore"):
            A = np.ascontiguousarray(self.sys.eval_matrix(t, x, U))
        for k in np.flatnonzero(ok & ~np.isfinite(A).all(axis=(1, 2))):
            try:
                self.sys.eval_matrix(t[k], x[k], U[k])
            except DomainError as err:
                errors[k] = err
        # fmax, like max(1.0, norm(A)) at one state, ignores a nan norm
        nrmA = np.fmax(1.0, _row_norms(A.reshape(N, n * n)))

        def gate(bad, make):
            """The error make(k) at each bad row k that has none yet."""
            for k in np.flatnonzero(bad):
                errors[k] = errors[k] or make(k)

        def residual_gate(vecs, side):
            for slot in range(n):
                v = vecs[:, slot]
                with np.errstate(all="ignore"):
                    Av = ((v[:, None, :] @ A)[:, 0] if side == "left"
                          else (A @ v[:, :, None])[:, :, 0])
                    res = _row_norms(Av - vals[:, slot, None] * v)
                    bad = res > HINT_RESIDUAL_TOL * nrmA * (1.0 + _row_norms(v))
                gate(bad, lambda k: HintInconsistent(
                    f"hinted {side} vector {slot} has residual {res[k]:.3e}"))

        if check:
            residual_gate(rights, "right")
        live, cond = np.array([err is None for err in errors], dtype=bool), np.full(N, np.nan)
        cond[live] = np.linalg.cond(np.swapaxes(rights[live], 1, 2))
        gate(live & ~(cond <= COND_LIMIT),
             lambda k: IllConditioned(f"hinted frame condition number {cond[k]:.3g}"))
        live = np.array([err is None for err in errors], dtype=bool)
        if self.left_fn is None:
            lefts = np.full((N, n, n), np.nan)
            lefts[live] = np.linalg.inv(np.swapaxes(rights[live], 1, 2))
        else:
            with np.errstate(all="ignore"):
                lefts = _evaluate(self.left_fn, t, x, U)
            lefts = np.ascontiguousarray(lefts).reshape(N, n, n)
            if check:
                residual_gate(lefts, "left")
        values = vals.astype(complex)
        bad = np.array([err is not None for err in errors], dtype=bool)
        values[bad], rights[bad], lefts[bad] = np.nan, np.nan, np.nan
        return values, rights, lefts, errors

    def frame_at(self, t, x, u, check=True) -> Frame:
        """The hinted frame at one state: frames_batch on one row, with equal
        hinted values grouped into clusters in slot order."""
        values, rights, lefts, errors = self.frames_batch(
            np.array([t], dtype=float), np.array([x], dtype=float),
            np.asarray(u, dtype=float)[None], check)
        if errors[0] is not None:
            raise errors[0]
        vals = values[0].real
        clusters = []
        assigned = set()
        ctol = CLUSTER_RTOL * (1.0 + float(np.max(np.abs(vals))))
        for slot in range(self.n):
            if slot in assigned:
                continue
            members = [s for s in range(self.n) if abs(vals[s] - vals[slot]) <= ctol]
            assigned.update(members)
            clusters.append(Cluster(complex(vals[slot]), len(members), members))
        return Frame(values=values[0], rights=rights[0], lefts=lefts[0],
                     kinds=[KIND_EIGEN] * self.n, clusters=clusters,
                     point=(t, x, tuple(u)))


def analytic_field(sys_) -> AnalyticFrameField:
    """The hinted frame field of sys_, built once per system and kept next to
    its compiled entries: building it compiles every hint expression, and the
    field keeps the compiled eigenvalue gradients it has made."""
    field = sys_._cache.get("autovectors")
    if field is None:
        field = sys_._cache["autovectors"] = AnalyticFrameField(sys_)
    return field


def analytic_frame(sys_, t, x, u) -> Frame:
    """Frame built from the model's autovector hints, residual-gated."""
    return analytic_field(sys_).frame_at(t, x, u)


def eigenvalue_derivatives(lefts, DA, rights):
    """Perturbation formula l (D_w A) r / (l r) for simple eigenvalues, row
    by row: lefts and rights (N, n) hold each eigenvalue's left and right
    autovectors, DA (N, n, n) the derivative of A along w."""
    lefts, rights = np.ascontiguousarray(lefts)[:, None, :], np.ascontiguousarray(rights)[:, :, None]
    return ((lefts @ np.ascontiguousarray(DA)) @ rights)[:, 0, 0] / (lefts @ rights)[:, 0, 0]


def eigenvalue_directional_derivative(sys_, frame: Frame, slot, w):
    """eigenvalue_derivatives for one simple eigenvalue of a frame, along w
    at the frame's point (t, x, u)."""
    t, x, u = frame.point
    DA = sys_.directional_matrix_derivative(t, x, np.array(u), w)
    return float(eigenvalue_derivatives(frame.lefts[slot][None], DA[None],
                                        frame.rights[slot][None])[0])
