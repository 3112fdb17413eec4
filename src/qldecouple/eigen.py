"""Eigenstructure with clustering, Jordan chains and complex pairs.

Numeric frames come from two stages, each on a stack of states.  The
spectrum stage (spectra) clusters each row's eigenvalues and builds its
right and left autovectors.  The condition checker differentiates
eigenvector FIELDS by finite differences, so vectors computed at nearby
points must belong to one smooth field.  That is what the alignment stage
(aligned) provides: it maps freshly computed frames onto the normalization
of reference frames (orthogonal Procrustes inside each eigenspace, then a
rescale anchored at the reference pivot component).  Every frame is a
FrameStack; spectrum_at and align_frames (the two stages) and the hinted
frame_at work on one state and return one-row stacks.  FrameMachine builds
every frame of a system, base or near, from these stages or from the hinted
field.  Where the spectrum is simple and real, frame_derivatives gives the
frame's exact first-order motion from the derivative of A instead.
"""

from __future__ import annotations

import numpy as np

from . import exprlang as ex
from .errors import HintInconsistent, IllConditioned, MismatchedSignature
from .system import _evaluate

COND_LIMIT = 1e8
RANK_TOL = 1e-8
CLUSTER_RTOL = 1e-6       # cluster width relative to 1 + spectral radius
HINT_RESIDUAL_TOL = 1e-8  # hinted eigenvector residual relative to |A| (1 + |v|)

KIND_EIGEN = "eigen"
KIND_COMPLEX_RE = "complexRe"
KIND_COMPLEX_IM = "complexIm"
# the fill of an eigen kinds array (np.full with the str makes a str per entry)
_EIGEN = np.array(KIND_EIGEN, dtype=object)


def generalized_kind(order):
    return f"generalized-rank-{order}"


def _runs(mult):
    """(first slot, size) of the clusters of a row, its slots' multiplicities."""
    runs, s = [], 0
    while s < len(mult):
        runs.append((s, int(mult[s])))
        s += int(mult[s])
    return runs


class FrameStack:
    """Frames at the rows of a stack of states: values (N, n) complex, rights
    and lefts (N, slot, component; lefts None when not built) and, per row
    and slot, the multiplicity `mult` and complexness `cplx` of its cluster
    (clusters are runs of slots, so these hold the row's signature) and its
    kind.  errors[k] is what building row k raised, or None (NaN arrays)."""

    def __init__(self, values, rights, lefts, errors=None, mult=None, cplx=None, kinds=None):
        N, n = values.shape
        self.values, self.rights, self.lefts = values, rights, lefts
        self.errors = np.full(N, None, dtype=object) if errors is None else errors
        self.mult = np.ones((N, n), dtype=int) if mult is None else mult
        self.cplx = np.zeros((N, n), dtype=bool) if cplx is None else cplx
        self.kinds = np.full((N, n), _EIGEN) if kinds is None else kinds

    def take(self, rows):
        return FrameStack(*(None if a is None else a[rows] for a in (
            self.values, self.rights, self.lefts, self.errors, self.mult, self.cplx, self.kinds)))

    def row(self, k):
        """Row k as a one-row stack; raises what building it raised."""
        if self.errors[k] is not None:
            raise self.errors[k]
        return self.take([k])

    def signature(self, k):
        """Row k's clusters in slot order, as (multiplicity, complex) pairs."""
        return tuple((m, bool(self.cplx[k, s])) for s, m in _runs(self.mult[k]))


def _at(V, index):
    """V[r, s, index[r, s]] of a stack V (R, S, m): one entry per vector."""
    return V[np.arange(len(V))[:, None], np.arange(V.shape[1]), index]


def _pivoted(V):
    """The vectors of V (R, S, component), each divided by its component of
    largest modulus, and the mask of those whose pivot is zero."""
    piv = _at(V, np.abs(V).argmax(axis=2))
    zero = piv == 0
    return V / np.where(zero, 1.0, piv)[:, :, None], zero


def _jordan_basis(B, heads, mult):
    """heads followed by Jordan chains raised from them by successive
    least-squares solves B w' = w, until there are mult vectors; returns
    (vectors, kinds), or None when the chains stop short."""
    vecs, kinds = list(heads), [KIND_EIGEN] * len(heads)
    for head in heads:
        prev, order = head, 2
        while len(vecs) < mult and order <= len(B):
            wv, *_ = np.linalg.lstsq(B, prev, rcond=None)
            if np.linalg.norm(B @ wv - prev) > 1e-6 * (1.0 + np.linalg.norm(prev)):
                break
            vecs.append(wv)
            kinds.append(generalized_kind(order))
            prev, order = wv, order + 1
        if len(vecs) >= mult:
            return vecs, kinds
    return None


def spectra(sys_, t, x, U, lefts=True) -> FrameStack:
    """The spectrum stage: numeric frames at the rows of U (N, n), t and x
    scalars or following the rows, from one evaluation of A (a row where it
    is not finite keeps the DomainError eval_matrix raises at its state) and
    one eig.  A row's eigenvalues cluster where their (Re, |Im|) lie within
    ctol = CLUSTER_RTOL (1 + spectral radius) of each other, transitively;
    slots run over the clusters by the (Re, |Im|) of their means and over
    their members by (Re, Im).  A simple real eigenvalue takes eig's vector,
    which must be real; a multiple one lam the null basis of A - lam I from
    one stacked svd per signature, completed by Jordan chains (lstsq, row by
    row); a complex cluster the real and imaginary parts of eig's vectors of
    its members with Im > 0; each divided by its pivot.  The condition number
    is gated at COND_LIMIT and, with `lefts`, the lefts invert the rights,
    each in one stacked call.  A row keeps its first error in slot order."""
    N, n = U.shape
    t, x = np.full(N, t), np.full(N, x)
    errors = np.full(N, None, dtype=object)
    A = sys_.eval_rows("eval_matrix", t, x, U, errors)
    rows = np.flatnonzero(np.equal(errors, None))
    try:
        w, V = np.linalg.eig(A[rows])
    except np.linalg.LinAlgError:
        # a row where eig fails keeps the error; the others run again
        for k in rows:
            try:
                np.linalg.eig(A[k])
            except np.linalg.LinAlgError as err:
                errors[k] = err
        rows = np.flatnonzero(np.equal(errors, None))
        w, V = np.linalg.eig(A[rows])
    A, R = A[rows], len(rows)
    ctol = CLUSTER_RTOL * (1.0 + np.abs(w).max(axis=1))
    w_half = w.real + 1j * np.abs(w.imag)
    near = np.abs(w_half[:, :, None] - w_half[:, None, :]) <= ctol[:, None, None]
    joined = np.flatnonzero(near.sum(axis=(1, 2)) > n)
    rep, mult, cplx = w_half, np.ones((R, n), dtype=int), np.zeros((R, n), dtype=bool)
    if joined.size:
        # each eigenvalue's cluster (labelled by its lowest member: powers of
        # near connect it transitively) and the cluster's mean
        for _ in range((n - 1).bit_length()):
            near = near @ near
        labels, rep = near.argmax(axis=2), w_half.copy()
        for pattern in np.unique(labels[joined], axis=0):
            sel = (labels == pattern).all(axis=1)
            for c in np.unique(pattern):
                members = np.flatnonzero(pattern == c)
                if len(members) > 1:
                    block = np.ix_(sel, members)
                    rep[block] = np.mean(w_half[block], axis=1)[:, None]
        # rep.imag, a mean of |Im|, is >= 0
        perm = np.lexsort((w.imag, w.real, labels, rep.imag, rep.real))
        labels = np.take_along_axis(labels, perm, axis=1)
        mult = (labels[:, :, None] == labels[:, None, :]).sum(axis=2)
        cplx = np.take_along_axis(rep.imag, perm, axis=1) > ctol[:, None]
    else:
        perm = np.argsort(w_half.real, axis=1, kind="stable")
    rep = rep[np.arange(R)[:, None], perm]
    values, kinds = rep.real.astype(complex), np.full((R, n), _EIGEN)
    first, fail = np.full(R, n + 1), np.full(R, None, dtype=object)

    def flag(bad, slot, error):
        # error(j) at rows j without an error at an earlier slot or check
        for j in bad:
            if first[j] > slot:
                first[j], fail[j] = slot, error(j)

    # simple real eigenvalues: eig's vectors, real, pivot-normalized
    vectors = np.swapaxes(V, 1, 2)[np.arange(R)[:, None], perm]
    real = np.abs(vectors.imag).max(axis=2) <= 1e-8 * np.abs(vectors).max(axis=2)
    rights, zero = _pivoted(vectors.real)
    if ((mult == 1) & (zero | ~real)).any():
        for j, s in zip(*np.nonzero((mult == 1) & ~real)):
            flag([j], s, lambda j: IllConditioned("complex eigenvector for a real eigenvalue"))
        for j, s in zip(*np.nonzero((mult == 1) & zero)):
            flag([j], s, lambda j: IllConditioned("zero autovector"))

    # the multiple clusters, by signature
    signatures = np.unique((mult * 2 + cplx)[joined], axis=0) if joined.size else ()
    for signature in signatures:
        g = joined[((mult * 2 + cplx)[joined] == signature).all(axis=1)]
        signature = signature // 2
        for s, m in _runs(signature):
            if m > 1 and cplx[g[0], s]:
                r, members = np.arange(len(g))[:, None], perm[g, s:s + m]
                pos = w[g][r, members].imag > 0
                flag(g[2 * pos.sum(axis=1) != m], s,
                     lambda j: IllConditioned("unpaired complex eigenvalues"))
                members = members[r, np.argsort(~pos, axis=1, kind="stable")[:, :m // 2]]
                values[g, s:s + m] = np.mean(w[g][r, members], axis=1)[:, None]
                v, zero = _pivoted(np.swapaxes(V[g], 1, 2)[r, members])
                flag(g[zero.any(axis=1)], s, lambda j: IllConditioned("zero autovector"))
                e = s + 2 * (m // 2)  # the last slot of an odd (unpaired) cluster stays unset
                rights[g, s:e:2], rights[g, s + 1:e:2] = v.real, v.imag
                kinds[g, s:e:2], kinds[g, s + 1:e:2] = KIND_COMPLEX_RE, KIND_COMPLEX_IM
            elif m > 1:
                B = A[g] - rep[g, s].real[:, None, None] * np.eye(n)
                _, sv, vh = np.linalg.svd(B)
                tol = RANK_TOL * np.maximum(1.0, _row_norms(A[g].reshape(len(g), n * n)))
                dim = (sv <= tol[:, None]).sum(axis=1)
                flag(g[dim == 0], s, lambda j: IllConditioned(
                    f"no eigenvector found for eigenvalue {rep[j, s].real:.6g}"))
                # the null basis is the last dim rows of vh
                for d in np.unique(dim[dim > 0]):
                    at = np.flatnonzero(dim == d)
                    heads, zero = _pivoted(vh[at, n - d:n - d + min(d, m)])
                    flag(g[at[zero.any(axis=1)]], s, lambda j: IllConditioned("zero autovector"))
                    if d >= m:
                        rights[g[at], s:s + m] = heads
                        continue
                    for i, j in enumerate(g[at]):
                        basis = _jordan_basis(B[at[i]], heads[i], m)
                        if basis is None:
                            flag([j], s, lambda j: IllConditioned(
                                f"could not complete a Jordan basis for eigenvalue "
                                f"{rep[j, s].real:.6g}"))
                        else:
                            rights[j, s:s + m], kinds[j, s:s + m] = basis

    ok = np.flatnonzero(np.equal(fail, None))
    cond = np.full(R, np.nan)
    cond[ok] = np.linalg.cond(np.swapaxes(rights[ok], 1, 2))
    flag(ok[~(cond[ok] <= COND_LIMIT)], n,
         lambda j: IllConditioned(f"autovector matrix condition number {cond[j]:.3g}"))
    errors[rows] = fail
    ok = np.equal(fail, None)
    live = rows[ok]
    return FrameStack(
        _scatter(N, live, values[ok]), _scatter(N, live, rights[ok]),
        _scatter(N, live, np.linalg.inv(np.swapaxes(rights[ok], 1, 2))) if lefts else None,
        errors, _scatter(N, rows, mult, 1), _scatter(N, rows, cplx, False),
        _scatter(N, rows, kinds, _EIGEN))


def _scatter(N, rows, a, fill=np.nan):
    """a (len(rows), ...) at `rows` of an (N, ...) array filled with fill."""
    if len(rows) == N:
        return a
    out = np.full((N,) + a.shape[1:], fill, dtype=a.dtype)
    out[rows] = a
    return out


def spectrum_at(sys_, t, x, u) -> FrameStack:
    """The spectrum stage (spectra) at one state, as a one-row stack; raises
    what the stage keeps there."""
    return spectra(sys_, t, x, np.asarray(u, dtype=float)[None]).row(0)


def _row_norms(V):
    """Euclidean norms of the rows of V (N, m), each with the dot product
    np.linalg.norm takes of one vector, so each equals norm(V[k])."""
    V = np.ascontiguousarray(V)
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def _rescale(vecs, references):
    """The rescale of align_frames on a stack (N, slot, component): each
    vector scaled so its component at the reference's pivot index matches
    the reference.  Returns the rescaled vectors and the mask of rows that
    kept every pivot."""
    i_ref = np.abs(references).argmax(axis=2)
    denom = _at(vecs, i_ref)
    ok = (np.abs(denom) >= 1e-12 * (1.0 + np.abs(vecs).max(axis=2))).all(axis=1)
    scale = _at(references, i_ref) / np.where(ok[:, None], denom, 1.0)
    return vecs * scale[:, :, None], ok


def _mismatch(reference: FrameStack, i, raw: FrameStack, k):
    """The error of raw row k whose signature differs from reference row i."""
    return MismatchedSignature(f"multiplicity pattern changed: {reference.signature(i)} "
                               f"vs {raw.signature(k)}")


def aligned(reference: FrameStack, raw: FrameStack, lefts=True) -> FrameStack:
    """The alignment stage: each row of raw expressed in the normalization
    of the same row of reference, a stack of the same n (a one-row
    reference serves every row).  A raw row with an error keeps it.  The
    k-th reference cluster is matched to the k-th raw cluster, so the
    signatures must agree (MismatchedSignature).  Within a cluster of d > 1
    slots the raw basis is rotated onto the reference (orthogonal
    Procrustes: one stacked svd of reference @ raw^T per cluster and
    signature).  Each vector is then rescaled so its component at the
    reference pivot index matches the reference, which it must not have
    lost (MismatchedSignature), and the condition number is gated at
    COND_LIMIT.  With `lefts` the lefts invert the rights.  The values are
    raw's, the kinds the reference's."""
    N, n = raw.values.shape
    # the reference row of each raw row: a one-row reference serves them all
    of = np.zeros(N, dtype=int) if len(reference.values) < N else np.arange(N)
    errors = raw.errors.copy()
    same = ((reference.mult == raw.mult) & (reference.cplx == raw.cplx)).all(axis=1)
    rows = np.flatnonzero(np.equal(errors, None))
    for k in rows[~same[rows]]:
        errors[k] = _mismatch(reference, of[k], raw, k)
    rows = rows[same[rows]]
    X, ref, mult = raw.rights[rows], reference.rights[of[rows]], raw.mult[rows]
    multi = np.flatnonzero((mult > 1).any(axis=1))
    for pattern in np.unique(mult[multi], axis=0) if multi.size else ():
        g = multi[(mult[multi] == pattern).all(axis=1)]
        for s, m in _runs(pattern):
            if m > 1:
                Xc = X[g, s:s + m]
                Us, _, Vt = np.linalg.svd(ref[g, s:s + m] @ np.swapaxes(Xc, 1, 2))
                X[g, s:s + m] = (Us @ Vt) @ Xc
    X, kept = _rescale(X, ref)
    cond = np.linalg.cond(np.swapaxes(X, 1, 2))
    for k in rows[~kept]:
        errors[k] = MismatchedSignature("aligned vector lost its pivot component")
    ill = kept & ~(cond <= COND_LIMIT)
    for k, c in zip(rows[ill], cond[ill]):
        errors[k] = IllConditioned(f"aligned frame condition number {c:.3g}")
    ok = kept & ~ill
    rows, X = rows[ok], X[ok]
    return FrameStack(_scatter(N, rows, raw.values[rows]), _scatter(N, rows, X),
                      _scatter(N, rows, np.linalg.inv(np.swapaxes(X, 1, 2))) if lefts else None,
                      errors, raw.mult, raw.cplx, reference.kinds[of])


def align_frames(reference: FrameStack, raw: FrameStack) -> FrameStack:
    """The alignment stage (aligned) on one-row stacks; raises what the
    stage keeps."""
    if reference.values.shape[1] != raw.values.shape[1]:
        raise _mismatch(reference, 0, raw, 0)
    return aligned(reference, raw).row(0)


class AnalyticFrameField:
    """Frame field evaluated from model-file autovector hint expressions."""

    def __init__(self, sys_):
        hints = sys_.hints.get("autovectors")
        if not hints:
            raise HintInconsistent("model supplies no autovector hints")
        self.sys = sys_
        order = sys_.arg_order
        # the eigenvalues, then the rights' entries: one call per stack, and
        # the subtrees they share computed once
        self.hint_fn = ex.compile_expression(
            list(hints["eigenvalues"]) + [c for vec in hints["right"] for c in vec], order)
        self.left_fn = (ex.compile_expression([c for vec in hints["left"] for c in vec], order)
                        if "left" in hints else None)
        self.gradient_fn = None  # compiled on the first value_gradients call

    def value_gradients(self, slot, t, x, U):
        """d lambda_slot / du_k at the rows of U (N, n), k on the last axis, from
        one compiled function of every hinted eigenvalue's exact gradient,
        k-major: its entry k * n + c is d lambda_c / du_k."""
        if self.gradient_fn is None:
            grads = ex.differentiate(self.sys.hints["autovectors"]["eigenvalues"], self.sys.states)
            self.gradient_fn = ex.compile_expression([e for g in grads for e in g], self.sys.arg_order)
        return np.ascontiguousarray(_evaluate(self.gradient_fn, t, x, U)[:, slot::self.sys.n])

    def frames_batch(self, t, x, U, check=True, lefts=True) -> FrameStack:
        """frame_at at the rows of U (N, n), t and x scalars or following the
        rows, as a FrameStack whose errors[k] is what frame_at raises at row
        k, or None; its arrays are NaN in the rows with an error.  A mask of
        live rows runs through the gates in this order: finite hints, finite
        A (the DomainError eval_matrix raises at that state), with `check`
        the right residuals, the condition number, and with `check` the
        residuals of the hinted lefts.  A gate builds an error only at a live
        row it rejects.  With `lefts` the lefts are the hinted ones, or
        without left hints the inverse of the rights; otherwise None."""
        N, n = U.shape
        with np.errstate(all="ignore"):
            hinted = _evaluate(self.hint_fn, t, x, U)
        vals, rights = hinted[:, :n], np.ascontiguousarray(hinted[:, n:]).reshape(N, n, n)
        live, errors = np.ones(N, dtype=bool), np.full(N, None, dtype=object)

        def gate(bad, make):
            """The error make(k) at each live row k that bad rejects."""
            for k in np.flatnonzero(bad & live):
                errors[k], live[k] = make(k), False

        gate(~np.isfinite(hinted).all(axis=1),
             lambda k: HintInconsistent("hint expressions evaluate non-finite"))
        A = self.sys.eval_rows("eval_matrix", t, x, U, errors)
        live &= np.equal(errors, None)
        if check:
            # fmax, like max(1.0, norm(A)) at one state, ignores a nan norm
            nrmA = np.fmax(1.0, _row_norms(A.reshape(N, n * n)))

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
        cond = np.full(N, np.nan)
        cond[live] = np.linalg.cond(np.swapaxes(rights[live], 1, 2))
        gate(~(cond <= COND_LIMIT),
             lambda k: IllConditioned(f"hinted frame condition number {cond[k]:.3g}"))
        if self.left_fn is not None and (lefts or check):
            with np.errstate(all="ignore"):
                L = np.ascontiguousarray(_evaluate(self.left_fn, t, x, U)).reshape(N, n, n)
            if check:
                residual_gate(L, "left")
        elif lefts:
            L = np.full((N, n, n), np.nan)
            L[live] = np.linalg.inv(np.swapaxes(rights[live], 1, 2))
        values, bad = vals.astype(complex), ~live
        if bad.any():
            values[bad], rights[bad] = np.nan, np.nan
            if lefts:
                L[bad] = np.nan
        return FrameStack(values, rights, L if lefts else None, errors)

    def frame_at(self, t, x, u, check=True) -> FrameStack:
        """frames_batch at one state, as a one-row stack; raises what it
        keeps there."""
        return self.frames_batch(np.array([t], dtype=float), np.array([x], dtype=float),
                                 np.asarray(u, dtype=float)[None], check).row(0)


def analytic_field(sys_) -> AnalyticFrameField:
    """The hinted frame field of sys_, built once per system and kept next to
    its compiled entries: building it compiles every hint expression, and the
    field keeps the compiled eigenvalue gradients it has made."""
    field = sys_._cache.get("autovectors")
    if field is None:
        field = sys_._cache["autovectors"] = AnalyticFrameField(sys_)
    return field


def analytic_frame(sys_, t, x, u) -> FrameStack:
    """The one-row stack built from the model's autovector hints,
    residual-gated."""
    return analytic_field(sys_).frame_at(t, x, u)


class FrameMachine:
    """Builds frames of the frame field of a system on a stack of states:
    base frames, near frames against a reference and the centered FD
    sweeps.  The residual kernel of conditions, the flows of transform and
    verify_transform read every frame through it."""

    def __init__(self, sys_, frame="auto"):
        self.sys = sys_
        has_hints = "autovectors" in sys_.hints
        if frame == "auto":
            frame = "analytic" if has_hints else "numeric"
        if frame == "analytic" and not has_hints:
            raise HintInconsistent("model supplies no autovector hints")
        self.mode = frame
        self.field = analytic_field(sys_) if frame == "analytic" else None

    @property
    def provenance(self):
        return "analyticHint" if self.mode == "analytic" else "numeric"

    def base(self, t, x, u) -> FrameStack:
        """frames() at the one state u, as a one-row stack; raises what
        building that row raised."""
        return self.frames(np.array([t], dtype=float), np.array([x], dtype=float),
                           np.asarray(u, dtype=float)[None]).row(0)

    def frames(self, t, x, U, reference: FrameStack = None,
               lefts=True) -> FrameStack:
        """Base frames at the rows of U (N, n), or near frames against the
        rows of `reference` (a one-row reference serves every row); t and x
        are scalars or (N,).  A row that fails a gate keeps the exception,
        but for a LinAlgError of a base frame, which is raised.  Hinted
        frames come from AnalyticFrameField.frames_batch, whose near frames
        skip the residual gates.  Numeric frames come from the spectrum
        stage (spectra) and, against a reference, the alignment stage
        (aligned).  Without `lefts` the stack's lefts are None."""
        if self.field is not None:
            return self.field.frames_batch(t, x, U, check=reference is None, lefts=lefts)
        if reference is not None:
            return aligned(reference, spectra(self.sys, t, x, U, lefts=False),
                                 lefts=lefts)
        out = spectra(self.sys, t, x, U, lefts=lefts)
        for err in out.errors:
            if isinstance(err, np.linalg.LinAlgError):
                raise err
        return out

    def sweep(self, t, x, U, base: FrameStack, slot, h, lefts):
        """Near frames at U + h r_slot and at U - h r_slot, each row against
        its row of base; h is (N,).  Without `lefts` their lefts are None."""
        d = h[:, None] * base.rights[:, slot]
        return (self.frames(t, x, U + d, base, lefts=lefts),
                self.frames(t, x, U - d, base, lefts=lefts))


def eigenvalue_derivatives(lefts, DA, rights):
    """Perturbation formula l (D_w A) r / (l r) for simple eigenvalues, row
    by row: lefts and rights (N, n) hold each eigenvalue's left and right
    autovectors, DA (N, n, n) the derivative of A along w."""
    lefts, rights = np.ascontiguousarray(lefts)[:, None, :], np.ascontiguousarray(rights)[:, :, None]
    return ((lefts @ np.ascontiguousarray(DA)) @ rights)[:, 0, 0] / (lefts @ rights)[:, 0, 0]


def frame_derivatives(lefts, DA, rights, values):
    """The first-order motion along w of frames with a simple real spectrum,
    row by row: lefts and rights (N, slot, component), values (N, n) and DA
    (N, n, n) the derivative of A along w give C (N, n, n) with C[d, e] =
    l_d DA r_e / (lambda_d - lambda_e) off the diagonal and 0 on it.
    Differentiating A r_e = lambda_e r_e and applying l_d gives, in the
    gauge that keeps the lefts inverse to the rights and moves no vector
    along itself, D_w r_e = -sum_d C[d, e] r_d and D_w L = C L.  Entries
    between equal eigenvalues are not finite."""
    lam = values.real
    M = np.ascontiguousarray(lefts) @ DA @ np.swapaxes(rights, 1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        C = M / (lam[:, :, None] - lam[:, None, :])
    C[:, np.arange(lam.shape[1]), np.arange(lam.shape[1])] = 0.0
    return C


def eigenvalue_directional_derivative(sys_, t, x, u, frame: FrameStack, slot, w):
    """eigenvalue_derivatives for one simple eigenvalue of the one-row stack
    `frame` built at the state (t, x, u), along w."""
    DA = sys_.directional_matrix_derivative(t, x, np.asarray(u, dtype=float), w)
    return float(eigenvalue_derivatives(frame.lefts[:, slot], DA[None], frame.rights[:, slot])[0])
