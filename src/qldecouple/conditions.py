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
constrains every ordered pair i != j.  Verdicts aggregate max residuals over
an admissible sample sweep.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import eigen
from .errors import (
    DegenerateSample,
    DomainError,
    HintInconsistent,
    IllConditioned,
    MismatchedSignature,
    NotApplicable,
    SchemaError,
    TooLarge,
)
from .system import QuasilinearSystem, SamplePlan

FD_STEP = 1e-5
DEFAULT_TOL = 1e-6
EXCLUDED_FRACTION_LIMIT = 0.2
# samples in the gradient-only pilot check that prunes search candidates
PILOT_COUNT = 10


@dataclass
class PartitionScheme:
    """Ordered blocks of frame slots; mode partial (hierarchy) or full."""

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

    def constraint_count(self):
        """Sum over blocks of n_i * m_i * (n - m_i)."""
        n = self.n
        total, m = 0, 0
        for size in self.sizes:
            m += size
            total += size * m * (n - m)
        return total


def gradient_tuples(p: PartitionScheme):
    yield from p.forbidden_pairs()


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


def source_tuples(p: PartitionScheme):
    yield from gradient_tuples(p)


# ---------------------------------------------------------------------------
# frame machinery shared by the residual operations
# ---------------------------------------------------------------------------

class FrameMachine:
    """Builds base frames and centered FD sweeps of the frame field."""

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

    def base(self, t, x, u) -> eigen.Frame:
        if self.field is not None:
            return self.field.frame_at(t, x, u)
        return eigen.spectrum_at(self.sys, t, x, u)

    def near(self, t, x, u, reference: eigen.Frame) -> eigen.Frame:
        if self.field is not None:
            return self.field.frame_at(t, x, u, check=False)
        raw = eigen.spectrum_at(self.sys, t, x, u)
        return eigen.align_frames(reference, raw)

    def rights_batch(self, t, x, U, reference: eigen.Frame):
        """Right autovectors near() gives at the rows of U (N, n), as (N, slot,
        component), NaN in rows near() rejects.  Hinted frames and numeric
        rows with a real simple spectrum are evaluated in one batch; other
        numeric rows go through near() one at a time."""
        if self.field is not None:
            return self.field.rights_batch(t, x, U)
        rights, fallback = eigen.simple_rights_batch(self.sys, t, x, U, reference)
        for k in np.flatnonzero(fallback):
            try:
                rights[k] = self.near(t, x, U[k], reference).rights
            except (DomainError, IllConditioned, MismatchedSignature):
                pass
        return rights

    def sweep(self, t, x, u, base: eigen.Frame, slot, h):
        d = base.rights[slot]
        fp = self.near(t, x, u + h * d, base)
        fm = self.near(t, x, u - h * d, base)
        return fp, fm


def _fd_step(u):
    return FD_STEP * (1.0 + float(np.linalg.norm(u)))


class _SampleResiduals:
    """The residual kernels at one state (t, x, u).  Holds the FD step h and
    the base frame, and computes each centered frame sweep and each block
    source residual once, on first use."""

    def __init__(self, machine, t, x, u, base):
        self.machine, self.t, self.x, self.u = machine, t, x, u
        self.h = _fd_step(u)
        self.base = base
        self._sweeps, self._sources = {}, {}

    def sweep(self, slot):
        if slot not in self._sweeps:
            self._sweeps[slot] = self.machine.sweep(self.t, self.x, self.u, self.base,
                                                    slot, self.h)
        return self._sweeps[slot]

    def bracket(self, b, c):
        """[r_b, r_c] = (D r_c) r_b - (D r_b) r_c from the sweeps along r_b
        and r_c."""
        fpb, fmb = self.sweep(b)
        d_c_along_b = (fpb.rights[c] - fmb.rights[c]) / (2.0 * self.h)
        fpc, fmc = self.sweep(c)
        d_b_along_c = (fpc.rights[b] - fmc.rights[b]) / (2.0 * self.h)
        return d_c_along_b - d_b_along_c

    def gradient(self, path, a, b):
        base, t, x = self.base, self.t, self.x
        if path != "fd":
            field_ = self.machine.field
            if field_ is not None:
                grads = np.array([fn(t, x, *self.u) for fn in field_.value_gradient_fns(a)])
                return float(grads @ base.rights[b])
            if base.cluster_of_slot(a).alg_mult == 1:
                return eigen.eigenvalue_directional_derivative(self.machine.sys, base, a,
                                                               base.rights[b])
        fp, fm = self.sweep(b)
        d = (fp.values[a] - fm.values[a]) / (2.0 * self.h)
        return float(abs(d)) if base.cluster_of_slot(a).is_complex else float(d.real)

    def interaction(self, a, b, c):
        # l_a . ((D r_b) r_c - (D r_c) r_b)
        return float(self.base.lefts[a] @ self.bracket(c, b))

    def source(self, partition, a, b):
        """Component a of the source residual of a's block i along r_b."""
        i = partition.block_of(a)
        slots = [s for j, bj in enumerate(partition.blocks)
                 if not partition.forbidden(i, j) for s in bj]
        if (i, b) not in self._sources:
            self._sources[i, b] = self._block_source(slots, b)
        return float(self._sources[i, b][slots.index(a)])

    def _block_source(self, slots, b):
        """res_b = r_b(psi) - dL(r_b, R) (L R)^-1 psi, with L and R the left
        and right rows of `slots`, psi = L g and
        dL(r_b, r_c) = r_b(L r_c) - L [r_b, r_c]."""
        sys_, t, x, u, h = self.machine.sys, self.t, self.x, self.u, self.h
        d = self.base.rights[b]
        L, R = self.base.lefts[slots], self.base.rights[slots].T
        fp, fm = self.sweep(b)
        Lp, Lm = fp.lefts[slots], fm.lefts[slots]
        d_psi = (Lp @ sys_.eval_source(t, x, u + h * d)
                 - Lm @ sys_.eval_source(t, x, u - h * d)) / (2.0 * h)
        d_LR = (Lp @ fp.rights[slots].T - Lm @ fm.rights[slots].T) / (2.0 * h)
        dL = d_LR - L @ np.column_stack([self.bracket(b, c) for c in slots])
        psi = L @ sys_.eval_source(t, x, u)
        return d_psi - dL @ np.linalg.solve(L @ R, psi)


def gradient_condition_residual(sys_, slot_a, slot_b, t, x, u, frame="auto",
                                path="auto", machine=None, base=None):
    """Directional derivative of the slot-a eigenvalue along the slot-b
    right autovector.  Simple eigenvalues use the perturbation formula
    l (D_w A) r / (l r); hinted fields are differentiated exactly; the FD
    fallback tracks cluster values across aligned frames."""
    u = np.asarray(u, dtype=float)
    m = machine or FrameMachine(sys_, frame)
    f = base if base is not None else m.base(t, x, u)
    return _SampleResiduals(m, t, x, u, f).gradient(path, slot_a, slot_b)


def interaction_condition_residual(sys_, slot_a, slot_b, slot_c, t, x, u,
                                   frame="auto", machine=None, base=None):
    """l_a . ((D r_b) r_c - (D r_c) r_b) with the field derivatives taken by
    central finite differences of aligned frames."""
    u = np.asarray(u, dtype=float)
    m = machine or FrameMachine(sys_, frame)
    f = base if base is not None else m.base(t, x, u)
    return _SampleResiduals(m, t, x, u, f).interaction(slot_a, slot_b, slot_c)


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
    u = np.asarray(u, dtype=float)
    m = machine or FrameMachine(sys_, frame)
    f = base if base is not None else m.base(t, x, u)
    return _SampleResiduals(m, t, x, u, f).source(partition, slot_a, slot_b)


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


class _SweepEvaluator:
    """Per-sample residual evaluation for one partition."""

    def __init__(self, sys_, partition, frame, gradient_path, separation_tolerance,
                 families):
        partition.validate_for(sys_.n)
        self.sys = sys_
        self.partition = partition
        self.machine = FrameMachine(sys_, frame)
        self.gradient_path = gradient_path
        self.separation_tolerance = separation_tolerance
        self.homogeneous = sys_.homogeneous
        self.grad_tuples = list(gradient_tuples(partition)) if "gradient" in families else []
        self.int_tuples = list(interaction_tuples(partition)) if "interaction" in families else []
        self.src_tuples = (list(source_tuples(partition))
                           if "source" in families and not self.homogeneous else [])
        p = partition
        self.labels = [("gradient", f"{p.label(a)}->{p.label(b)}") for a, b in self.grad_tuples]
        self.labels += [("interaction", f"{p.label(a)}|{p.label(b)}->{p.label(c)}")
                        for a, b, c in self.int_tuples]
        self.labels += [("source", f"{p.label(a)}->{p.label(b)}") for a, b in self.src_tuples]

    def _separation_excluded(self, f: eigen.Frame):
        if self.machine.field is not None:
            # hinted frames may split a multiple eigenvalue deliberately
            return False
        rho = float(np.max(np.abs(f.values))) if f.n else 0.0
        gap = self.separation_tolerance * (1.0 + rho)
        for i, bi in enumerate(self.partition.blocks):
            for bj in self.partition.blocks[i + 1:]:
                for a in bi:
                    for b in bj:
                        if abs(f.values[a] - f.values[b]) <= gap:
                            return True
        return False

    def _split_cluster(self, f: eigen.Frame):
        for c in f.clusters:
            blocks = {self.partition.block_of(s) for s in c.slots}
            if len(blocks) > 1:
                return True
        return False

    def evaluate(self, t, x, u):
        """Returns (status, rows); rows are (family, label, value)."""
        u = np.asarray(u, dtype=float)
        if self.sys.is_excluded(t, x, u):
            return "excluded", []
        try:
            base = self.machine.base(t, x, u)
        except (IllConditioned, HintInconsistent, DomainError, MismatchedSignature):
            return "degenerate", []
        if self._separation_excluded(base):
            return "excluded", []
        if self.machine.field is None and self._split_cluster(base):
            return "degenerate", []

        s = _SampleResiduals(self.machine, t, x, u, base)
        try:
            values = [s.gradient(self.gradient_path, a, b) for a, b in self.grad_tuples]
            values += [s.interaction(a, b, c) for a, b, c in self.int_tuples]
            values += [s.source(self.partition, a, b) for a, b in self.src_tuples]
        except (IllConditioned, MismatchedSignature, DomainError, HintInconsistent,
                np.linalg.LinAlgError):
            # LinAlgError: a singular L R in the source residual
            return "degenerate", []
        return "ok", [(fam, label, v) for (fam, label), v in zip(self.labels, values)]


def check_partition(sys_: QuasilinearSystem, partition: PartitionScheme,
                    plan: SamplePlan = None, tol: float = DEFAULT_TOL,
                    frame="auto", gradient_path="auto",
                    families=("gradient", "interaction", "source"),
                    csv_path=None) -> ConditionReport:
    """Evaluate every condition tuple of the partition mode at every
    admissible sample and aggregate the residual statistics."""
    plan = plan or SamplePlan()
    evaluator = _SweepEvaluator(sys_, partition, frame=frame,
                                gradient_path=gradient_path,
                                separation_tolerance=plan.separation_tolerance,
                                families=families)
    report = ConditionReport(
        mode=partition.mode, blocks=[list(b) for b in partition.blocks],
        tolerance=tol, frame_provenance=evaluator.machine.provenance,
        gradient_path=gradient_path)
    samples = sys_.sample_points(plan)
    report.total_samples = len(samples)
    for fam in ("gradient", "interaction", "source"):
        st = FamilyStats()
        if fam == "gradient":
            st.vacuous = not evaluator.grad_tuples
        elif fam == "interaction":
            st.vacuous = not evaluator.int_tuples
        else:
            st.vacuous = not evaluator.src_tuples
        report.families[fam] = st

    labels = evaluator.labels
    residual_matrix = [] if len(labels) <= 64 else None
    csv_rows = [] if csv_path else None

    for idx, (t, x, *u) in enumerate(samples):
        status, rows = evaluator.evaluate(t, x, np.array(u))
        if status == "excluded":
            report.excluded += 1
            continue
        if status == "degenerate":
            report.degenerate += 1
            continue
        report.evaluated += 1
        if residual_matrix is not None:
            residual_matrix.append([v for _, _, v in rows])
        for fam, label, value in rows:
            st = report.families[fam]
            a = abs(value)
            st.count += 1
            st.mean_abs += a
            key = label
            mx, sm, ct = st.per_tuple.get(key, (0.0, 0.0, 0))
            st.per_tuple[key] = (max(mx, a), sm + a, ct + 1)
            if a > st.max_abs or st.argmax is None:
                st.max_abs = max(st.max_abs, a)
                st.argmax = {"sampleIndex": int(idx), "t": float(t), "x": float(x),
                             "u": [float(z) for z in u], "tuple": label,
                             "residual": float(value)}
            if csv_rows is not None:
                parts = label.replace("|", "->").split("->")
                ia = parts[0]
                lb = parts[1] if len(parts) == 3 else ""
                jg = parts[-1]
                csv_rows.append([int(idx), float(t), float(x), *[float(z) for z in u],
                                 fam, ia, lb, jg, float(value)])

    for st in report.families.values():
        if st.count:
            st.mean_abs /= st.count

    if report.evaluated == 0:
        report.flags.append("allExcluded" if report.excluded else "allDegenerate")
    if evaluator.machine.field is None:
        # flag nontrivial Jordan structure for manual review
        try:
            probe = next((s for s in samples if not sys_.is_excluded(s[0], s[1], s[2:])), None)
            if probe is not None:
                f = evaluator.machine.base(probe[0], probe[1], probe[2:])
                if any(k.startswith("generalized") for k in f.kinds):
                    report.flags.append("jordanBlocks")
        except (IllConditioned, DomainError, MismatchedSignature):
            pass

    report.diagnostics["constraintCountFormula"] = partition.constraint_count()
    report.diagnostics["tupleCount"] = len(labels)
    if residual_matrix:
        M = np.array(residual_matrix)
        scale = float(np.abs(M).max()) if M.size else 0.0
        if scale > 0:
            report.diagnostics["residualMatrixRank"] = int(
                np.linalg.matrix_rank(M, tol=1e-8 * scale))
        else:
            report.diagnostics["residualMatrixRank"] = 0

    if csv_path:
        state_cols = list(sys_.states)
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sampleIndex", "t", "x", *state_cols,
                        "family", "ia", "lb", "jg", "residual"])
            w.writerows(csv_rows)
    return report


# ---------------------------------------------------------------------------
# partition search
# ---------------------------------------------------------------------------

def _assignment_units(sys_, frame, plan):
    """Indivisible slot groups: single slots for hinted frames, whole
    clusters for numeric frames (multiplicity-respecting assignments)."""
    machine = FrameMachine(sys_, frame)
    if machine.field is not None:
        return [[s] for s in range(sys_.n)], machine
    for row in sys_.sample_points(plan):
        if sys_.is_excluded(row[0], row[1], row[2:]):
            continue
        try:
            f = machine.base(row[0], row[1], row[2:])
        except (IllConditioned, DomainError):
            continue
        return [list(c.slots) for c in f.clusters], machine
    raise DegenerateSample("no admissible sample to determine the cluster structure")


def search_partitions(sys_: QuasilinearSystem, plan: SamplePlan = None,
                      tol: float = DEFAULT_TOL, max_k: int = None,
                      mode="partial", frame="auto"):
    """Enumerate block assignments (k = 2..max_k), prune with a gradient
    pilot over the sample-sequence prefix, fully check survivors.

    Returns passing (PartitionScheme, ConditionReport) pairs sorted by
    k descending then max residual ascending.
    """
    n = sys_.n
    if n > 8:
        raise TooLarge("partition search is limited to n <= 8")
    plan = plan or SamplePlan()
    max_k = max_k or n
    units, _ = _assignment_units(sys_, frame, plan)
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
    passing = []
    for scheme in schemes:
        pilot = check_partition(sys_, scheme, pilot_plan, tol, frame=frame,
                                families=("gradient",))
        if pilot.verdict != "pass":
            continue
        full = check_partition(sys_, scheme, plan, tol, frame=frame)
        if full.verdict == "pass":
            passing.append((scheme, full))
    passing.sort(key=lambda sr: (-sr[0].k, sr[1].max_residual or 0.0,
                                 tuple(map(tuple, sr[0].blocks))))
    return passing


def _surjections(m, k):
    """All maps {0..m-1} -> {0..k-1} hitting every block, lexicographic."""
    assign = [0] * m

    def rec(i):
        if i == m:
            if len(set(assign)) == k:
                yield tuple(assign)
            return
        for b in range(k):
            assign[i] = b
            yield from rec(i + 1)

    yield from rec(0)


# ---------------------------------------------------------------------------
# Nijenhuis tensor cross-check
# ---------------------------------------------------------------------------

def nijenhuis_residual(sys_: QuasilinearSystem, t, x, u) -> float:
    """max |N_jik| of the coefficient matrix at one state.

    N_jik = A_ai dA_jk/du_a - A_ak dA_ji/du_a
          + A_ja dA_ai/du_k - A_ja dA_ak/du_i   (sum over a)

    Defined for autonomous homogeneous systems only.
    """
    if not sys_.homogeneous:
        raise NotApplicable("Nijenhuis check requires a homogeneous system")
    if not sys_.autonomous:
        raise NotApplicable("Nijenhuis check requires an autonomous system")
    u = np.asarray(u, dtype=float)
    n = sys_.n
    A = sys_.eval_matrix(t, x, u)
    D = np.empty((n, n, n))
    ident = np.eye(n)
    for mcoord in range(n):
        D[mcoord] = sys_.directional_matrix_derivative(t, x, u, ident[mcoord])
    N = (np.einsum("ai,ajk->jik", A, D)
         - np.einsum("ak,aji->jik", A, D)
         + np.einsum("ja,kai->jik", A, D)
         - np.einsum("ja,iak->jik", A, D))
    return float(np.max(np.abs(N)))


def nijenhuis_max(sys_: QuasilinearSystem, plan: SamplePlan = None):
    """Max Nijenhuis residual over admissible samples; (value, count)."""
    plan = plan or SamplePlan()
    best, used = 0.0, 0
    for row in sys_.sample_points(plan):
        t, x, u = row[0], row[1], row[2:]
        if sys_.is_excluded(t, x, u):
            continue
        try:
            best = max(best, nijenhuis_residual(sys_, t, x, u))
        except DomainError:
            continue
        used += 1
    if used == 0:
        raise DegenerateSample("no admissible samples for the Nijenhuis sweep")
    return best, used
