"""Structure-condition residuals, partition verdicts and partition search.

Three residual families decide decouplability for a given partition of the
autovector slots into ordered blocks:

  gradient:     grad(lambda_a) . r_b            (speed variation across b-waves)
  interaction:  l_a . ((Dr_b) r_c - (Dr_c) r_b) (wave-wave reflection)
  source:       component a of r_b(psi) - dL(r_b, R) (L R)^-1 psi
                                                (block source dependence)

In the source residual L and R hold the left and right autovectors of the
slots a's block may depend on, psi = L g and dL(r_b, r_c) = r_b(L r_c) -
L [r_b, r_c] (see source_condition_residual).  Gradient residuals are
scale-free, interaction residuals are insensitive to smooth rescalings of the
frame fields (biorthogonality kills the scale terms), and a change of the
left scaling L -> M L multiplies the source residual by M, so all three run
on hinted or numeric frames directly.  The source residual assumes a map
U = H(u); when A or g depend on (t, x) the effective source gains
H_t + T H_x, which frames at one (t, x) cannot determine.

Partial mode constrains block i against all later blocks j > i; full mode
constrains every ordered pair i != j.

Evaluation has two stages.  A _SampleStack, which does not depend on the
partition, holds a plan's samples, their is_excluded mask, the base frames
of the admissible ones (FrameMachine.frames, one batch) and one kernel
(_Residuals) over the rows with a frame.  The kernel computes each sweep
(FrameMachine.sweep, the near frames at u +- h r_b), dA, bracket and
residual column at the rows asked for, once, and keeps each row's error per
item.  A partition reduces the stack: separation exclusion, its tuples'
columns, each row's first error as its degeneracy cause (_cause), and the
report.  check_partition is one stack and one reduction; search_partitions
reduces two stacks (pilot and full plan) per candidate; the public
*_condition_residual functions run the kernel on one state, whose base= is
a one-row stack (FrameMachine.base).  FrameMachine.frames builds every
frame, base or near, on a stack: hinted frames by frame_at's gates on a
mask of live rows, numeric frames by the spectrum and alignment stages of
eigen, whatever the spectrum (simple, clustered, complex or Jordan).  The
flows of transform read its near frames' rights.  Every stacked product runs
the BLAS or LAPACK call of the per-point one, so a row's bits do not depend
on its stack.  nijenhuis_residual, too, takes one state or a stack (NaN in
the rows where A or dA/du is not finite).
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import eigen
from .errors import (
    DegenerateSample,
    DomainError,
    HintInconsistent,
    IllConditioned,
    NotApplicable,
    SchemaError,
    TooLarge,
)
from .system import QuasilinearSystem, SamplePlan, _evaluate

FD_STEP = 1e-5
DEFAULT_TOL = 1e-6
EXCLUDED_FRACTION_LIMIT = 0.2
# samples in the gradient-only pilot check that prunes search candidates
PILOT_COUNT = 10
FAMILIES = ("gradient", "interaction", "source")


@dataclass
class PartitionScheme:
    """Ordered blocks of frame slots and the dependence relation the
    conditions constrain block pair by block pair: block i must not depend
    on block j when j > i in partial mode (a hierarchy), or when j != i in
    full mode.  forbidden(i, j) is that relation; allowed(i) and
    forbidden_pairs() are the slots it leaves and the slot pairs it
    excludes."""

    blocks: list
    mode: str = "partial"

    def __post_init__(self):
        if self.mode not in ("partial", "full"):
            raise SchemaError(f"unknown mode '{self.mode}'")
        if len(self.blocks) < 2:
            raise SchemaError("a partition needs at least 2 blocks")
        if any(len(b) < 1 for b in self.blocks):
            raise SchemaError("empty partition block")

    @property
    def k(self):
        return len(self.blocks)

    @property
    def sizes(self):
        return tuple(len(b) for b in self.blocks)

    @property
    def n(self):
        return sum(self.sizes)

    def validate_for(self, n):
        slots = [s for b in self.blocks for s in b]
        if sorted(slots) != list(range(n)):
            raise SchemaError("partition must assign every frame slot exactly once")

    def block_of(self, slot):
        for i, b in enumerate(self.blocks):
            if slot in b:
                return i
        raise KeyError(slot)

    def forbidden(self, i, j):
        """True when block i must not depend on block j: every later block in
        partial mode, every other block in full mode."""
        return j > i if self.mode == "partial" else j != i

    def allowed(self, i):
        """Slots of the blocks block i may depend on, in block order."""
        return [s for j, bj in enumerate(self.blocks) if not self.forbidden(i, j) for s in bj]

    def forbidden_pairs(self):
        """Slot pairs (a, b) with a in block i, b in block j, (i, j) forbidden."""
        return [(a, b) for i, bi in enumerate(self.blocks)
                for j, bj in enumerate(self.blocks) if self.forbidden(i, j)
                for a in bi for b in bj]

    def label(self, slot):
        i = self.block_of(slot)
        return f"{i + 1},{self.blocks[i].index(slot) + 1}"

    @staticmethod
    def from_sizes(sizes, mode="partial"):
        blocks, start = [], 0
        for s in sizes:
            blocks.append(list(range(start, start + s)))
            start += s
        return PartitionScheme(blocks, mode)

    @staticmethod
    def from_hint(hint, mode=None):
        """The scheme of a model's partition hint {"blocks", "mode"}; `mode`,
        when given, overrides the hint's (partial by default)."""
        return PartitionScheme([list(b) for b in hint["blocks"]],
                               mode or hint.get("mode", "partial"))

    def constraint_count(self):
        """Sum over blocks of n_i * m_i * (n - m_i)."""
        n = self.n
        total, m = 0, 0
        for size in self.sizes:
            m += size
            total += size * m * (n - m)
        return total


def interaction_tuples(p: PartitionScheme):
    """(a, b, c): a in block i, b != a in a block i may depend on, c in a
    block i must not depend on."""
    for i, bi in enumerate(p.blocks):
        for ell, bl in enumerate(p.blocks):
            if p.forbidden(i, ell):
                continue
            for j, bj in enumerate(p.blocks):
                if p.forbidden(i, j):
                    yield from ((a, b, c) for a in bi for b in bl if b != a for c in bj)


# ---------------------------------------------------------------------------
# frame machinery shared by the residual operations
# ---------------------------------------------------------------------------

class FrameMachine:
    """Builds frames of the frame field on a stack of states: base frames,
    near frames against a reference and the centered FD sweeps."""

    def __init__(self, sys_: QuasilinearSystem, frame="auto"):
        self.sys = sys_
        has_hints = "autovectors" in sys_.hints
        if frame == "auto":
            frame = "analytic" if has_hints else "numeric"
        if frame == "analytic" and not has_hints:
            raise HintInconsistent("model supplies no autovector hints")
        self.mode = frame
        self.field = eigen.analytic_field(sys_) if frame == "analytic" else None

    @property
    def provenance(self):
        return "analyticHint" if self.mode == "analytic" else "numeric"

    def base(self, t, x, u) -> eigen.FrameStack:
        """frames() at the one state u, as a one-row stack; raises what
        building that row raised."""
        return self.frames(np.array([t], dtype=float), np.array([x], dtype=float),
                           np.asarray(u, dtype=float)[None]).row(0)

    def frames(self, t, x, U, reference: eigen.FrameStack = None,
               lefts=True) -> eigen.FrameStack:
        """Base frames at the rows of U (N, n), or near frames against the
        rows of `reference` (a one-row reference serves every row); t and x
        are scalars or (N,).  A row that fails a gate keeps the exception,
        but for a LinAlgError of a base frame, which is raised.  Hinted
        frames come from AnalyticFrameField.frames_batch, whose near frames
        skip the residual gates.  Numeric frames come from the spectrum
        stage (eigen.spectra) and, against a reference, the alignment stage
        (eigen.aligned).  Without `lefts` the stack's lefts are None."""
        if self.field is not None:
            return self.field.frames_batch(t, x, U, check=reference is None, lefts=lefts)
        if reference is not None:
            return eigen.aligned(reference, eigen.spectra(self.sys, t, x, U, lefts=False),
                                 lefts=lefts)
        out = eigen.spectra(self.sys, t, x, U, lefts=lefts)
        for err in out.errors:
            if isinstance(err, np.linalg.LinAlgError):
                raise err
        return out

    def sweep(self, t, x, U, base: eigen.FrameStack, slot, h, lefts):
        """Near frames at U + h r_slot and at U - h r_slot, each row against
        its row of base; h is (N,).  Without `lefts` their lefts are None."""
        d = h[:, None] * base.rights[:, slot]
        return (self.frames(t, x, U + d, base, lefts=lefts),
                self.frames(t, x, U - d, base, lefts=lefts))


def _fd_step(u):
    return FD_STEP * (1.0 + float(np.linalg.norm(u)))


class _Residuals:
    """The residual kernel on a stack of states (t, x, U) with their base
    frames.  Its items (the FD step h, the centered sweep along a slot, dA
    along r_b, a bracket, a gradient column (a, b), an interaction column
    (a, b, c), a block source) are each computed at the rows a caller asks
    for, once per row, and memoized; a row's bits do not depend on the rows
    that share its call.  The items that can fail (sweeps, dA, block
    sources) keep what each row raised.  run() reads the items a set of
    tuples needs.  The sweeps build left vectors only with `lefts`, which
    the block sources need."""

    def __init__(self, machine, t, x, U, base: eigen.FrameStack, gradient_path, lefts):
        self.machine, self.gradient_path = machine, gradient_path
        self.t, self.x, self.U, self.base, self.lefts = t, x, U, base, lefts
        self.items = {}

    def _item(self, key, rows, compute, new=None):
        """Item `key` as (arrays, errors) over the stack: new() makes its
        arrays (a NaN column by default), and compute(todo, arrays, errors)
        fills those of `rows` not computed yet, errors[k] being what row k
        raised."""
        if key not in self.items:
            N = len(self.U)
            self.items[key] = (np.zeros(N, dtype=bool), new() if new else np.full(N, np.nan),
                               np.full(N, None, dtype=object))
        done, arrays, errors = self.items[key]
        todo = rows[~done[rows]]
        if todo.size:
            compute(todo, arrays, errors)
            done[todo] = True
        return arrays, errors

    def run(self, rows, partition=None, grad_tuples=(), int_tuples=(), src_tuples=()):
        """Residuals of the tuples at `rows` (indices into the stack), as
        (rows without error, tuples) in order gradient, interaction, source,
        and each row's first error or None.  A row reads the sweeps its
        tuples need in slot order (the numeric `auto` gradient sweeps only
        where the eigenvalue's cluster is multiple), then dA along r_b of its
        gradient tuples, then the block sources in tuple order, and nothing
        after its first error."""
        errors, failed = np.full(len(rows), None, dtype=object), np.zeros(len(rows), dtype=bool)

        def read(item, key, reads):
            at = np.flatnonzero(reads & ~failed)
            errors[at] = item(*key, rows[at])[1][rows[at]]
            failed[at] = [err is not None for err in errors[at]]

        exact = {a: self.exact(a)[rows] for a in dict.fromkeys(a for a, _ in grad_tuples)}
        need = np.zeros((self.U.shape[1], len(rows)), dtype=bool)
        for a, b in grad_tuples:
            need[b] |= ~exact[a]
        for _, b, c in int_tuples:
            need[[b, c]] = True
        sources = [(tuple(partition.allowed(partition.block_of(a))), b) for a, b in src_tuples]
        for slots, b in sources:
            need[[b, *slots]] = True
        for slot in range(len(need)):
            read(self.sweep, (slot,), need[slot])
        if self.machine.field is None:
            for b in dict.fromkeys(b for a, b in grad_tuples if exact[a].any()):
                read(self.derivative, (b,),
                     np.any([exact[a] for a, bb in grad_tuples if bb == b], axis=0))
        for key in dict.fromkeys(sources):
            read(self.source, key, ~failed)
        live = rows[~failed]
        cols = [self.gradient(a, b, live) for a, b in grad_tuples]
        cols += [self.interaction(a, b, c, live) for a, b, c in int_tuples]
        cols += [self.source(slots, b, live)[0][live, slots.index(a)]
                 for (slots, b), (a, _) in zip(sources, src_tuples)]
        return np.array(cols).T.reshape(len(live), len(cols)), errors

    def step(self, rows):
        """The FD step h at `rows`, computed only for rows that read a sweep."""
        def compute(rows, h, _):
            h[rows] = [_fd_step(u) for u in self.U[rows]]
        return self._item(("h",), rows, compute)[0][rows]

    def exact(self, a):
        """Rows whose gradients of slot a read no sweep: hinted fields are
        differentiated exactly, simple numeric eigenvalues by the
        perturbation formula."""
        if self.gradient_path == "fd" or self.machine.field is not None:
            return np.full(len(self.U), self.gradient_path != "fd")
        return self.base.mult[:, a] == 1

    def sweep(self, slot, rows):
        """The sweep along r_slot as two (values, rights, lefts) triples, at
        +h and -h, of (N, ...) stacks NaN in the rows not computed (lefts
        None without self.lefts)."""
        N, n = self.U.shape

        def compute(rows, out, errors):
            sides = self.machine.sweep(self.t[rows], self.x[rows], self.U[rows],
                                       self.base.take(rows), slot, self.step(rows), self.lefts)
            errors[rows] = [ep or em for ep, em in zip(sides[0].errors, sides[1].errors)]
            for parts, f in zip(out, sides):
                parts[0][rows], parts[1][rows] = f.values, f.rights
                if self.lefts:
                    parts[2][rows] = f.lefts

        return self._item(("sweep", slot), rows, compute, lambda: [
            [np.full((N, n), np.nan, dtype=complex), np.full((N, n, n), np.nan),
             np.full((N, n, n), np.nan) if self.lefts else None] for _ in range(2)])

    def _central(self, slot, part, index, rows):
        """Central difference along r_slot of the sweep frames' part
        (0 values, 1 rights, 2 lefts) at slot `index`, at `rows`."""
        p, m = (side[part][rows, index] for side in self.sweep(slot, rows)[0])
        h2 = 2.0 * self.step(rows)
        return (p - m) / (h2 if p.ndim == 1 else h2[:, None])

    def bracket(self, b, c, rows):
        """[r_b, r_c] = (D r_c) r_b - (D r_b) r_c from the sweeps along r_b
        and r_c, (N, n)."""
        def compute(rows, out, _):
            out[rows] = self._central(b, 1, c, rows) - self._central(c, 1, b, rows)
        return self._item(("bracket", b, c), rows, compute,
                          lambda: np.full(self.U.shape, np.nan))[0]

    def gradient(self, a, b, rows):
        def compute(rows, out, _):
            exact = self.exact(a)[rows]
            fd, rows = rows[~exact], rows[exact]
            if fd.size:
                d = self._central(b, 0, a, fd)
                out[fd] = np.where(self.base.cplx[fd, a], np.abs(d), d.real)
            if rows.size:
                out[rows] = self._gradient_exact(a, b, rows)
        return self._item(("gradient", a, b), rows, compute)[0][rows]

    def _gradient_exact(self, a, b, rows):
        """Hinted fields differentiated exactly; simple numeric eigenvalues
        by the perturbation formula."""
        base, t, x, U = self.base, self.t[rows], self.x[rows], self.U[rows]
        r_b = base.rights[rows, b]
        field_ = self.machine.field
        if field_ is not None:
            grads = np.ascontiguousarray(_evaluate(field_.value_gradient_fn(a), t, x, U))
            return (grads[:, None, :] @ r_b[:, :, None])[:, 0, 0]
        return eigen.eigenvalue_derivatives(base.lefts[rows, a],
                                            self.derivative(b, rows)[0][rows],
                                            base.rights[rows, a])

    def derivative(self, b, rows):
        """dA along r_b, (N, n, n).  Rows with the same nonzero components
        of r_b share one stacked call, so each row sums the terms its
        per-point call sums."""
        def compute(rows, DA, errors):
            nonzero = self.base.rights[rows, b] != 0
            for pattern in np.unique(nonzero, axis=0):
                sel = rows[(nonzero == pattern).all(axis=1)]
                errs = errors[sel]
                DA[sel] = self.machine.sys.eval_rows(
                    "directional_matrix_derivative", self.t[sel], self.x[sel], self.U[sel],
                    errs, self.base.rights[sel, b])
                errors[sel] = errs
        return self._item(("dA", b), rows, compute,
                          lambda: np.full(self.base.rights.shape, np.nan))

    def interaction(self, a, b, c, rows):
        # l_a . ((D r_b) r_c - (D r_c) r_b)
        def compute(rows, out, _):
            l_a = np.ascontiguousarray(self.base.lefts[rows, a])
            out[rows] = (l_a[:, None, :] @ self.bracket(c, b, rows)[rows][:, :, None])[:, 0, 0]
        return self._item(("interaction", a, b, c), rows, compute)[0][rows]

    def source(self, slots, b, rows):
        """The source residual of the block that may depend on `slots` along
        r_b: res_b = r_b(psi) - dL(r_b, R) (L R)^-1 psi, with L and R the
        left and right rows of `slots`, psi = L g and
        dL(r_b, r_c) = r_b(L r_c) - L [r_b, r_c]; (N, len(slots))."""
        def compute(rows, out, errors):
            h, t, x, U = self.step(rows), self.t[rows], self.x[rows], self.U[rows]
            h2 = (2.0 * h)[:, None]
            d = h[:, None] * self.base.rights[rows, b]
            L = self.base.lefts[rows][:, slots]
            R = np.swapaxes(self.base.rights[rows][:, slots], 1, 2)
            (_, Rp, Lp), (_, Rm, Lm) = ([part[rows] for part in side]
                                        for side in self.sweep(b, rows)[0])
            Lp, Lm = Lp[:, slots], Lm[:, slots]
            errs = errors[rows]
            g_p, g_m, g = (self.machine.sys.eval_rows("eval_source", t, x, V, errs)[:, :, None]
                           for V in (U + d, U - d, U))
            errors[rows] = errs
            d_psi = ((Lp @ g_p)[:, :, 0] - (Lm @ g_m)[:, :, 0]) / h2
            d_LR = (Lp @ np.swapaxes(Rp[:, slots], 1, 2)
                    - Lm @ np.swapaxes(Rm[:, slots], 1, 2)) / h2[:, :, None]
            dL = d_LR - L @ np.stack([self.bracket(b, c, rows)[rows] for c in slots], axis=2)
            live = np.equal(errs, None)
            rows, LR, psi = rows[live], L[live] @ R[live], L[live] @ g[live]
            try:
                sol = np.linalg.solve(LR, psi)
            except np.linalg.LinAlgError:
                # a singular L R: find its rows one at a time
                sol = np.full(psi.shape, np.nan)
                for j, k in enumerate(rows):
                    try:
                        sol[j] = np.linalg.solve(LR[j], psi[j])
                    except np.linalg.LinAlgError as err:
                        errors[k] = err
            out[rows] = d_psi[live] - (dL[live] @ sol)[:, :, 0]
        return self._item(("source", slots, b), rows, compute,
                          lambda: np.full((len(self.U), len(slots)), np.nan))


def _at_state(sys_, t, x, u, frame, machine, base, gradient_path, partition=None, **tuples):
    """The residual of one tuple at one state, from the kernel on a one-row
    stack; raises what a frame, sweep, derivative or solve it reads raised."""
    u = np.asarray(u, dtype=float)
    m = machine or FrameMachine(sys_, frame)
    kernel = _Residuals(m, np.array([t], dtype=float), np.array([x], dtype=float), u[None],
                        base if base is not None else m.base(t, x, u), gradient_path,
                        lefts=bool(tuples.get("src_tuples")))
    values, errors = kernel.run(np.arange(1), partition, **tuples)
    if errors[0] is not None:
        raise errors[0]
    return float(values[0, 0])


def gradient_condition_residual(sys_, slot_a, slot_b, t, x, u, frame="auto",
                                path="auto", machine=None, base=None):
    """Directional derivative of the slot-a eigenvalue along the slot-b
    right autovector.  Simple eigenvalues use the perturbation formula
    l (D_w A) r / (l r); hinted fields are differentiated exactly; the FD
    fallback tracks cluster values across aligned frames."""
    return _at_state(sys_, t, x, u, frame, machine, base, gradient_path=path,
                     grad_tuples=[(slot_a, slot_b)])


def interaction_condition_residual(sys_, slot_a, slot_b, slot_c, t, x, u,
                                   frame="auto", machine=None, base=None):
    """l_a . ((D r_b) r_c - (D r_c) r_b) with the field derivatives taken by
    central finite differences of aligned frames."""
    return _at_state(sys_, t, x, u, frame, machine, base, gradient_path="auto",
                     int_tuples=[(slot_a, slot_b, slot_c)])


def source_condition_residual(sys_, partition, slot_a, slot_b, t, x, u, frame="auto",
                              machine=None, base=None):
    """Component slot_a of the source residual of slot_a's block i along the
    slot_b right autovector:

        res_b = r_b(psi) - dL(r_b, R) (L R)^-1 psi,
        dL(r_b, r_c) = r_b(L r_c) - L [r_b, r_c]

    L and R hold the left and right autovectors of the slots block i may
    depend on (blocks <= i in partial mode, block i alone in full mode) and
    psi = L g.  Replacing L by M L multiplies res_b by M, so no normalization
    of the left fields has to be singled out; rescaling r_b scales res_b.
    The field derivatives are central differences of aligned frames.

    The residual vanishes when the block source dH g of a map U = H(u) does
    not depend on the forbidden variables.  When A or g depend on (t, x) the
    effective source gains H_t + T H_x, which frames at one (t, x) cannot
    determine; that case is not covered.
    """
    return _at_state(sys_, t, x, u, frame, machine, base, partition=partition,
                     gradient_path="auto", src_tuples=[(slot_a, slot_b)])


# ---------------------------------------------------------------------------
# sweep evaluation
# ---------------------------------------------------------------------------

@dataclass
class FamilyStats:
    max_abs: float = 0.0
    mean_abs: float = 0.0
    count: int = 0
    argmax: dict = None
    per_tuple: dict = field(default_factory=dict)
    vacuous: bool = False

    def to_dict(self):
        return {
            "maxAbs": self.max_abs if self.count else None,
            "meanAbs": self.mean_abs if self.count else None,
            "count": self.count,
            "argmax": self.argmax,
            "perTuple": {k: {"maxAbs": v[0], "meanAbs": v[1] / v[2], "count": v[2]}
                         for k, v in sorted(self.per_tuple.items())},
            "vacuous": self.vacuous,
        }

    @staticmethod
    def from_residuals(values, labels, samples, rows):
        """Statistics of one family's residual columns: values (evaluated
        samples, tuples) with the tuples' labels, row k taken at
        samples[rows[k]].  Sums run sample by sample, then tuple by tuple; a
        NaN never becomes the max; argmax is the first entry equal to the
        max, or the first entry when the max is 0."""
        st = FamilyStats(count=values.size, vacuous=not labels)
        if not values.size:
            return st
        a = np.abs(values)
        flat = a.ravel()
        st.max_abs = float(np.fmax.reduce(flat, initial=0.0))
        st.mean_abs = float(np.add.accumulate(flat)[-1]) / values.size
        r, c = divmod(int(np.argmax(flat == st.max_abs)) if st.max_abs > 0 else 0, len(labels))
        t, x, *u = samples[rows[r]].tolist()
        st.argmax = {"sampleIndex": int(rows[r]), "t": t, "x": x, "u": u, "tuple": labels[c],
                     "residual": float(values[r, c])}
        maxes, sums = np.fmax.reduce(a, axis=0, initial=0.0), np.add.accumulate(a)[-1]
        st.per_tuple = {label: (float(mx), float(sm), len(a))
                        for label, mx, sm in zip(labels, maxes, sums)}
        return st


@dataclass
class ConditionReport:
    mode: str
    blocks: list
    tolerance: float
    frame_provenance: str
    gradient_path: str
    total_samples: int = 0
    evaluated: int = 0
    excluded: int = 0
    degenerate: int = 0
    # degenerate samples counted by cause; reported under timing, not here
    degenerate_by_cause: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def max_residual(self):
        vals = [s.max_abs for s in self.families.values() if s.count]
        return max(vals) if vals else None

    @property
    def verdict(self):
        if self.evaluated == 0:
            return "fail"
        if self.total_samples and \
                (self.excluded + self.degenerate) / self.total_samples > EXCLUDED_FRACTION_LIMIT:
            return "fail"
        for stats in self.families.values():
            if stats.count and stats.max_abs > self.tolerance:
                return "fail"
        return "pass"

    def to_dict(self):
        return {
            "mode": self.mode,
            "blocks": self.blocks,
            "tolerance": self.tolerance,
            "frameProvenance": self.frame_provenance,
            "gradientPath": self.gradient_path,
            "samples": {
                "total": self.total_samples,
                "evaluated": self.evaluated,
                "excluded": self.excluded,
                "degenerate": self.degenerate,
            },
            "families": {k: v.to_dict() for k, v in sorted(self.families.items())},
            "maxResidual": self.max_residual,
            "verdict": self.verdict,
            "flags": sorted(self.flags),
            "diagnostics": self.diagnostics,
        }

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), sort_keys=True, **kw)


class _SampleStack:
    """The partition-independent stage of a check on a stack of samples
    (t, x, u): the is_excluded mask, the base frames at the admissible rows
    (one FrameMachine.frames call) and one residual kernel over the rows
    with a base frame.  evaluate() and check() reduce it for one partition;
    the kernel keeps what each reduction computes for the next."""

    def __init__(self, sys_, samples, machine, gradient_path, separation_tolerance):
        self.sys, self.samples, self.machine = sys_, samples, machine
        self.gradient_path, self.separation_tolerance = gradient_path, separation_tolerance
        t, x, U = samples[:, 0], samples[:, 1], samples[:, 2:]
        self.status = np.where(sys_.is_excluded(t, x, U), "excluded", "ok").astype(object)
        rows = np.flatnonzero(self.status == "ok")
        self.base = machine.frames(t[rows], x[rows], U[rows])
        for k, err in zip(rows, self.base.errors):
            if err is not None:
                self.status[k] = _cause(err)
        alive = np.flatnonzero(self.status[rows] == "ok")
        # the sample of each kernel row
        self.rows = rows[alive]
        self.kernel = _Residuals(machine, t[self.rows], x[self.rows], U[self.rows],
                                 self.base.take(alive), gradient_path,
                                 lefts=not sys_.homogeneous)

    def _separation_excluded(self, partition):
        """Kernel rows where a slot and a slot of a later block have
        eigenvalues within the separation gap; never for hinted frames,
        which may split a multiple eigenvalue deliberately."""
        values = self.kernel.base.values
        excluded = np.zeros(len(values), dtype=bool)
        if self.machine.field is not None or not len(values):
            return excluded
        gap = self.separation_tolerance * (1.0 + np.max(np.abs(values), axis=1))
        # full mode lists each pair twice, and |a - b| = |b - a| exactly
        for a, b in partition.forbidden_pairs():
            excluded |= np.abs(values[:, a] - values[:, b]) <= gap
        return excluded

    def evaluate(self, partition, families=FAMILIES):
        """Status and residuals of each sample for one partition.  Returns
        (status, values, tuples): status[k] is "ok", "excluded" or a
        degeneracy cause (see _cause); values holds one row of residuals per
        "ok" sample, in the order of tuples = (gradient, interaction,
        source)."""
        tuples = (partition.forbidden_pairs() if "gradient" in families else [],
                  list(interaction_tuples(partition)) if "interaction" in families else [],
                  partition.forbidden_pairs()
                  if "source" in families and not self.sys.homogeneous else [])
        status = self.status.copy()
        excluded = self._separation_excluded(partition)
        status[self.rows[excluded]] = "excluded"
        live = np.flatnonzero(~excluded)
        values, errors = self.kernel.run(live, partition, *tuples)
        for k, err in zip(self.rows[live], errors):
            if err is not None:
                status[k] = _cause(err)
        return status, values, tuples

    def check(self, partition, tol, families=FAMILIES, csv_path=None) -> ConditionReport:
        """The ConditionReport of one partition."""
        status, values, (grad, ints, src) = self.evaluate(partition, families)
        evaluated = np.flatnonzero(status == "ok")
        degenerate = status[(status != "ok") & (status != "excluded")].tolist()
        samples, p = self.samples, partition
        report = ConditionReport(
            mode=p.mode, blocks=[list(b) for b in p.blocks], tolerance=tol,
            frame_provenance=self.machine.provenance, gradient_path=self.gradient_path,
            total_samples=len(samples), evaluated=len(evaluated),
            excluded=int(np.count_nonzero(status == "excluded")), degenerate=len(degenerate),
            degenerate_by_cause=dict(Counter(degenerate)))
        labels = [("gradient", f"{p.label(a)}->{p.label(b)}") for a, b in grad]
        labels += [("interaction", f"{p.label(a)}|{p.label(b)}->{p.label(c)}")
                   for a, b, c in ints]
        labels += [("source", f"{p.label(a)}->{p.label(b)}") for a, b in src]
        bounds = np.cumsum([0, len(grad), len(ints), len(src)])
        for fam, lo, hi in zip(FAMILIES, bounds[:-1], bounds[1:]):
            report.families[fam] = FamilyStats.from_residuals(
                values[:, lo:hi], [label for _, label in labels[lo:hi]], samples, evaluated)

        if report.evaluated == 0:
            report.flags.append("allExcluded" if report.excluded else "allDegenerate")
        # flag nontrivial Jordan structure at the first admissible sample for
        # manual review
        base = self.base
        if self.machine.field is None and len(base.errors) and base.errors[0] is None \
                and any(k.startswith("generalized") for k in base.kinds[0]):
            report.flags.append("jordanBlocks")

        report.diagnostics["constraintCountFormula"] = p.constraint_count()
        report.diagnostics["tupleCount"] = len(labels)
        if len(labels) <= 64 and len(values):
            scale = float(np.abs(values).max()) if values.size else 0.0
            report.diagnostics["residualMatrixRank"] = (
                int(np.linalg.matrix_rank(values, tol=1e-8 * scale)) if scale > 0 else 0)

        if csv_path:
            _write_residuals_csv(csv_path, self.sys.states, samples, evaluated, values, labels)
        return report


def _cause(err):
    """Degeneracy cause of a sample where building a frame or residual
    raised err; a LinAlgError comes from a singular L R."""
    return "singularLR" if isinstance(err, np.linalg.LinAlgError) else type(err).__name__


def check_partition(sys_: QuasilinearSystem, partition: PartitionScheme,
                    plan: SamplePlan = None, tol: float = DEFAULT_TOL,
                    frame="auto", gradient_path="auto", families=FAMILIES,
                    csv_path=None) -> ConditionReport:
    """Evaluate every condition tuple of the partition mode at every
    admissible sample and aggregate the residual statistics: one sample
    stack (base frames and residual kernel) reduced for one partition, the
    path search_partitions takes for each candidate."""
    partition.validate_for(sys_.n)
    plan = plan or SamplePlan()
    machine = FrameMachine(sys_, frame)
    stack = _SampleStack(sys_, sys_.sample_points(plan), machine, gradient_path,
                         plan.separation_tolerance)
    return stack.check(partition, tol, families, csv_path)


def _write_residuals_csv(path, states, samples, evaluated, values, labels):
    """One line per evaluated sample and tuple: the sample, the tuple's
    family and slot labels (ia, lb, jg; lb empty but for interaction) and
    its residual."""
    tuples = []
    for fam, label in labels:
        parts = label.replace("|", "->").split("->")
        tuples.append((fam, parts[0], parts[1] if len(parts) == 3 else "", parts[-1]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sampleIndex", "t", "x", *states, "family", "ia", "lb", "jg", "residual"])
        for idx, row in zip(evaluated.tolist(), values.tolist()):
            sample = [idx, *samples[idx].tolist()]
            w.writerows([*sample, *tup, value] for tup, value in zip(tuples, row))


# ---------------------------------------------------------------------------
# partition search
# ---------------------------------------------------------------------------

def _assignment_units(stack: _SampleStack):
    """Indivisible slot groups: single slots for hinted frames, whole
    clusters for numeric frames (multiplicity-respecting assignments), read
    from the first admissible sample of the stack whose base frame does not
    raise IllConditioned or DomainError; any other error raises there."""
    if stack.machine.field is not None:
        return [[s] for s in range(stack.sys.n)]
    for k, err in enumerate(stack.base.errors):
        if err is None:
            return [list(range(s, s + m)) for s, m in eigen._runs(stack.base.mult[k])]
        if not isinstance(err, (IllConditioned, DomainError)):
            raise err
    raise DegenerateSample("no admissible sample to determine the cluster structure")


def search_partitions(sys_: QuasilinearSystem, plan: SamplePlan = None,
                      tol: float = DEFAULT_TOL, max_k: int = None,
                      mode="partial", frame="auto", work: dict = None):
    """Enumerate block assignments (k = 2..max_k), prune with a gradient
    pilot over the sample-sequence prefix, fully check survivors.  Two
    sample stacks, one for the pilot plan and one for the full plan, are
    built once; each candidate's pilot and full check is a reduction of
    them, with the report check_partition gives on the same plan.

    Returns passing (PartitionScheme, ConditionReport) pairs sorted by
    k descending then max residual ascending.  A `work` dict receives the
    candidates enumerated, the pilots passed, the full checks run and, per
    candidate, its blocks and each check's verdict and degenerate samples
    by cause.
    """
    n = sys_.n
    if n > 8:
        raise TooLarge("partition search is limited to n <= 8")
    plan = plan or SamplePlan()
    max_k = max_k or n
    machine = FrameMachine(sys_, frame)
    full = _SampleStack(sys_, sys_.sample_points(plan), machine, "auto",
                        plan.separation_tolerance)
    units = _assignment_units(full)
    m = len(units)

    seen = set()
    schemes = []
    for k in range(2, min(max_k, m) + 1):
        for assign in _surjections(m, k):
            blocks = [[] for _ in range(k)]
            for unit_idx, blk in enumerate(assign):
                blocks[blk].extend(units[unit_idx])
            key = tuple(tuple(sorted(b)) for b in blocks)
            if mode == "full":
                # non-interacting blocks carry no order
                key = tuple(sorted(key))
            if key in seen:
                continue
            seen.add(key)
            schemes.append(PartitionScheme([sorted(b) for b in blocks], mode))

    pilot_plan = SamplePlan(count=min(PILOT_COUNT, plan.count), strategy=plan.strategy,
                            seed=plan.seed, separation_tolerance=plan.separation_tolerance)
    pilot = _SampleStack(sys_, sys_.sample_points(pilot_plan), machine, "auto",
                         plan.separation_tolerance)
    passing, candidates = [], []
    for scheme in schemes:
        reports = {"pilot": pilot.check(scheme, tol, ("gradient",))}
        if reports["pilot"].verdict == "pass":
            reports["full"] = full.check(scheme, tol)
            if reports["full"].verdict == "pass":
                passing.append((scheme, reports["full"]))
        candidates.append({"blocks": scheme.blocks, **{s: {
            "verdict": r.verdict, "degenerateByCause": r.degenerate_by_cause}
            for s, r in reports.items()}})
    if work is not None:
        checked = sum("full" in c for c in candidates)
        work.update(candidates=len(schemes), pilotsPassed=checked, fullChecks=checked,
                    perCandidate=candidates)
    passing.sort(key=lambda sr: (-sr[0].k, sr[1].max_residual or 0.0,
                                 tuple(map(tuple, sr[0].blocks))))
    return passing


def _surjections(m, k):
    """All maps {0..m-1} -> {0..k-1} hitting every block, lexicographic."""
    return (a for a in product(range(k), repeat=m) if len(set(a)) == k)


# ---------------------------------------------------------------------------
# Nijenhuis tensor cross-check
# ---------------------------------------------------------------------------

def nijenhuis_residual(sys_: QuasilinearSystem, t, x, u):
    """max |N_jik| of the coefficient matrix at one state u (n,), or at each
    row of a stack (N, n) with t and x following the rows.

    N_jik = A_ai dA_jk/du_a - A_ak dA_ji/du_a
          + A_ja dA_ai/du_k - A_ja dA_ak/du_i   (sum over a)

    Defined for autonomous homogeneous systems only.  At one state a
    non-finite A or dA/du raises DomainError; a stack has NaN in those rows.
    """
    if not sys_.homogeneous:
        raise NotApplicable("Nijenhuis check requires a homogeneous system")
    if not sys_.autonomous:
        raise NotApplicable("Nijenhuis check requires an autonomous system")
    u = np.asarray(u, dtype=float)
    A = sys_.eval_matrix(t, x, u)
    # D[..., m, i, j] = dA_ij/du_m
    D = np.stack([sys_.directional_matrix_derivative(t, x, u, w) for w in np.eye(sys_.n)],
                 axis=-3)
    with np.errstate(all="ignore"):
        N = (np.einsum("...ai,...ajk->...jik", A, D)
             - np.einsum("...ak,...aji->...jik", A, D)
             + np.einsum("...ja,...kai->...jik", A, D)
             - np.einsum("...ja,...iak->...jik", A, D))
        res = np.max(np.abs(N), axis=(-3, -2, -1))
    finite = np.isfinite(A).all(axis=(-2, -1)) & np.isfinite(D).all(axis=(-3, -2, -1))
    return float(res) if u.ndim == 1 else np.where(finite, res, np.nan)


def nijenhuis_max(sys_: QuasilinearSystem, plan: SamplePlan = None):
    """Max Nijenhuis residual over admissible samples; (value, count).  A
    sample where A or dA/du is not finite is not counted."""
    samples = sys_.sample_points(plan or SamplePlan())
    samples = samples[~sys_.is_excluded(samples[:, 0], samples[:, 1], samples[:, 2:])]
    values = nijenhuis_residual(sys_, samples[:, 0], samples[:, 1], samples[:, 2:])
    values = values[~np.isnan(values)]
    if not len(values):
        raise DegenerateSample("no admissible samples for the Nijenhuis sweep")
    return float(np.fmax.reduce(values, initial=0.0)), len(values)
