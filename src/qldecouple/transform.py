"""Candidate decoupling maps: verification, characteristic flows, and the
numeric flow-coordinate construction of a decoupling map.

A candidate U = H(u) decouples when every component of the leading blocks is
annihilated by the right autovectors of the later blocks; then the
transformed matrix T = (grad H) A (grad H)^-1 is block triangular with the
required dependence.  verify_transform measures both facts on a sample
sweep.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import exprlang as ex
from .conditions import FrameMachine, PartitionScheme, _cause
from .errors import (
    DegenerateSample,
    DomainError,
    SchemaError,
    ShootingFailed,
    SingularCandidate,
)
from .system import INDEPENDENT, QuasilinearSystem, SamplePlan, _evaluate

DET_FLOOR = 1e-8          # |det grad H| below this makes a sample singular
SINGULAR_FRACTION = 0.01  # share of singular samples that rejects a candidate
DEPENDENCE_STEP = 1e-5    # relative FD step of the block-dependence probe
INTEGRATION_TOL = 1e-8    # integrate_field error budget per unit arc
MAX_REFINE = 6            # step-count doublings a curve may take to meet it
# arcs shorter than this get its budget, 1e-14: an m-step pass estimates its
# error as the sum of |full - half| / 15 over its steps, which on a short arc
# is roundoff in the last bits of u, about m eps |u| / 28 (4e-15 at the 512
# steps of a shooting leg's last refinement, for |u| near 1), and refining
# only raises it
ARC_FLOOR = 1e-6
SHOOT_TOL = 1e-8          # distance from the slice at which a shot lands
MAX_SHOTS = 100

@dataclass
class TransformCandidate:
    """Components U = H(u) over the state names, with the block partition."""

    components: list
    partition: PartitionScheme
    inverse: list = None
    inverse_states: list = None

    @staticmethod
    def from_strings(texts, partition, states, parameters=None, inverse=None):
        parameters = parameters or {}
        symbols = set(states) | set(parameters)
        comps = [ex.substitute(ex.parse(s, symbols), parameters) for s in texts]
        inv = None
        inv_states = None
        if inverse is not None:
            inv_states = [f"U{i+1}" for i in range(len(texts))]
            inv = [ex.substitute(ex.parse(s, set(inv_states) | set(parameters)), parameters)
                   for s in inverse]
        return TransformCandidate(comps, partition, inv, inv_states)

    @staticmethod
    def from_hints(sys_, mode=None):
        hints = sys_.hints
        if "transform" not in hints:
            raise SchemaError("model supplies no transform hint")
        if "partition" not in hints:
            raise SchemaError("model supplies no partition hint")
        return TransformCandidate(list(hints["transform"]),
                                  PartitionScheme.from_hint(hints["partition"], mode),
                                  hints.get("inverse"), hints.get("inverse_states"))


@dataclass
class TransformedSystem:
    """Sampled transformed system with the block-structure certificates."""

    partition: PartitionScheme
    samples: np.ndarray              # (N, 2 + n) admissible rows
    t_matrices: np.ndarray           # (N, n, n)
    u_values: np.ndarray             # (N, n) candidate images H(u)
    jacobian_dets: np.ndarray        # (N,)
    annihilation_max: float
    annihilation_mean: float
    off_block_max: float
    min_abs_det: float
    excluded: int
    degenerate: int
    verdict: str
    block_dependence: dict = None
    # degenerate samples counted by cause; reported under timing, not here
    degenerate_by_cause: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "mode": self.partition.mode,
            "blocks": [list(b) for b in self.partition.blocks],
            "samples": int(len(self.samples)),
            "excluded": self.excluded,
            "degenerate": self.degenerate,
            "annihilationMax": self.annihilation_max,
            "annihilationMean": self.annihilation_mean,
            "offBlockMax": self.off_block_max,
            "minAbsJacobianDet": self.min_abs_det,
            "blockDependence": self.block_dependence,
            "verdict": self.verdict,
        }

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), sort_keys=True, **kw)


def verify_transform(sys_: QuasilinearSystem, candidate: TransformCandidate,
                     plan: SamplePlan = None, tol: float = 1e-6,
                     frame="auto") -> TransformedSystem:
    """Measure annihilation residuals (grad H_a) . r_b, assemble T and its
    off-block norms, certify invertibility, and optionally probe the block
    dependence of T through the inverse map."""
    plan = plan or SamplePlan()
    n = sys_.n
    partition = candidate.partition
    partition.validate_for(n)
    if len(candidate.components) != n:
        raise SchemaError(f"candidate must have {n} components")

    order = sys_.arg_order
    comp_fn = ex.compile_expression(candidate.components, order)
    # grad H row by row: component i along state k is grads[k][i]
    grads = [ex.differentiate(candidate.components, nm) for nm in sys_.states]
    grad_fn = ex.compile_expression([g[i] for i in range(n) for g in grads], order)
    machine = FrameMachine(sys_, frame)
    # annihilation index set, and the off-block entries of T: H components
    # (rows) of block i against r slots (columns) of the blocks that the mode
    # forbids block i to depend on
    pairs = partition.forbidden_pairs()

    samples = sys_.sample_points(plan)
    states = samples[~sys_.is_excluded(samples[:, 0], samples[:, 1], samples[:, 2:])]
    excluded = len(samples) - len(states)
    frames = machine.frames(states[:, 0], states[:, 1], states[:, 2:], lefts=False)
    by_cause = Counter(_cause(err) for err in frames.errors if err is not None)
    live = np.array([err is None for err in frames.errors], dtype=bool)
    J = _jacobians(grad_fn, states[live])
    dets = np.linalg.det(J)
    ok = ~(np.abs(dets) < DET_FLOOR)
    singular = int(np.count_nonzero(~ok))
    samples, rights, J, dets = states[live][ok], frames.rights[live][ok], J[ok], dets[ok]
    t, x, U = samples[:, 0], samples[:, 1], samples[:, 2:]

    admissible = len(samples) + singular
    if admissible and singular > SINGULAR_FRACTION * admissible:
        raise SingularCandidate(
            f"|det grad H| < {DET_FLOOR:g} at {singular} of {admissible} samples")
    if not len(samples):
        raise DegenerateSample("no admissible samples for transform verification")

    ann = np.abs(_annihilation(J, rights, pairs))
    T = _transformed(J, sys_.eval_matrix(t, x, U))
    rows, cols = np.transpose(pairs)
    off = np.max(np.abs(T[:, rows, cols]), axis=1)
    # a running max and sum, sample by sample and pair by pair; a nan
    # entry leaves the max alone
    ann_max = float(np.fmax.reduce(ann.ravel(), initial=0.0))
    ann_sum = float(np.add.accumulate(ann.ravel())[-1]) if ann.size else 0.0
    off_max = float(np.fmax.reduce(off, initial=0.0))
    block_dep = None
    if candidate.inverse is not None:
        block_dep = _block_dependence(sys_, candidate, samples, comp_fn, grad_fn)

    verdict = "pass" if (ann_max <= tol and off_max <= tol) else "fail"
    return TransformedSystem(
        partition=partition, samples=samples, t_matrices=T,
        u_values=np.ascontiguousarray(_evaluate(comp_fn, t, x, U)), jacobian_dets=dets,
        annihilation_max=ann_max,
        annihilation_mean=(ann_sum / ann.size) if ann.size else 0.0,
        off_block_max=off_max, min_abs_det=float(np.min(np.abs(dets))),
        excluded=excluded, degenerate=sum(by_cause.values()), verdict=verdict,
        block_dependence=block_dep, degenerate_by_cause=dict(by_cause))


def _jacobians(grad_fn, samples):
    """grad H at the sample rows (t, x, u), as (N, n, n)."""
    J = _evaluate(grad_fn, samples[:, 0], samples[:, 1], samples[:, 2:])
    return np.ascontiguousarray(J).reshape(len(samples), samples.shape[1] - 2, -1)


def _annihilation(J, rights, pairs):
    """(grad H_a) . r_b for each slot pair (a, b), row by row: (N, pairs)."""
    return np.stack([(np.ascontiguousarray(J[:, a])[:, None, :]
                      @ np.ascontiguousarray(rights[:, b])[:, :, None])[:, 0, 0]
                     for a, b in pairs], axis=-1)


def _transformed(J, A):
    """T = J A J^-1 row by row on stacks (N, n, n); NaN in the rows where J
    is singular or A is not finite."""
    A = np.ascontiguousarray(A)
    bad = (np.linalg.slogdet(J)[0] == 0) | ~np.isfinite(A).all(axis=(1, 2))
    J = np.where(bad[:, None, None], np.eye(J.shape[-1]), J)
    T = (J @ A) @ np.linalg.inv(J)
    T[bad] = np.nan
    return T


def _block_dependence(sys_, candidate, rows, comp_fn, grad_fn):
    """max |d T^i_j entry / d U_m| for U_m outside the allowed set of block i,
    probed by central differences through the inverse map u = h(U) at each
    probe row's (t, x); probes where T is undefined are skipped."""
    n = sys_.n
    partition = candidate.partition
    inv_states = candidate.inverse_states or [f"U{i+1}" for i in range(n)]
    inv_fn = ex.compile_expression(candidate.inverse, list(INDEPENDENT) + inv_states)
    probes = rows[:: max(1, len(rows) // 8)]
    t, x = probes[:, 0], probes[:, 1]
    U0 = np.ascontiguousarray(_evaluate(comp_fn, t, x, probes[:, 2:]))
    # U0 with component m moved by +h and by -h, for every m: (m, side,
    # probe, n), evaluated as one stack
    h = DEPENDENCE_STEP * (1.0 + np.abs(U0))
    moved = np.eye(n, dtype=bool)[:, None, :]
    V = np.stack([np.where(moved, U0 + h, U0), np.where(moved, U0 - h, U0)], axis=1)
    tt, xx = np.tile(t, 2 * n), np.tile(x, 2 * n)
    with np.errstate(all="ignore"):
        u = np.ascontiguousarray(_evaluate(inv_fn, tt, xx, V.reshape(-1, n)))
        T = _transformed(_jacobians(grad_fn, np.column_stack([tt, xx, u])),
                         sys_.eval_matrix(tt, xx, u)).reshape(n, 2, len(probes), n, n)
        dT = (T[:, 0] - T[:, 1]) / (2.0 * h.T)[:, :, None, None]
    out = {}
    for i, bi in enumerate(partition.blocks):
        allowed = np.isin(np.arange(n), partition.allowed(i))
        # the max over each probe's entries is NaN where T is undefined, and
        # fmax skips it
        worst = np.max(np.abs(dT[~allowed][:, :, bi][..., allowed]), axis=(2, 3))
        out[f"block{i + 1}"] = float(np.fmax.reduce(worst.ravel(), initial=0.0))
    return out


# ---------------------------------------------------------------------------
# characteristic flows
# ---------------------------------------------------------------------------

def _rk4_step(field_fn, u, h, k1=None):
    if k1 is None:
        k1 = field_fn(u)
    k2 = field_fn(u + 0.5 * h * k1)
    k3 = field_fn(u + 0.5 * h * k2)
    k4 = field_fn(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_pass(field_fn, start, h, n_steps, in_domain):
    """n_steps RK4 steps of size h (M,) from the rows of start (M, n), each
    step checked against two half steps.  A row stops before a non-finite
    step (failed) or at its first point outside in_domain (left).  Returns
    the polylines (n_steps + 1, M, n), the point count of each, and the
    per-row error estimate, left and failed masks."""
    M = len(start)
    pts = np.empty((n_steps + 1,) + start.shape)
    pts[0] = start
    count = np.ones(M, dtype=int)
    err = np.zeros(M)
    left = np.zeros(M, dtype=bool)
    failed = np.zeros(M, dtype=bool)
    live = np.arange(M)
    h = h[:, None]
    for k in range(n_steps):
        u, hk = pts[k, live], h[live]
        k1 = field_fn(u)
        full = _rk4_step(field_fn, u, hk, k1)
        half = _rk4_step(field_fn, _rk4_step(field_fn, u, 0.5 * hk, k1), 0.5 * hk)
        bad = ~(np.isfinite(full).all(axis=1) & np.isfinite(half).all(axis=1))
        failed[live[bad]] = True
        live, full, half = live[~bad], full[~bad], half[~bad]
        err[live] += np.linalg.norm(full - half, axis=1) / 15.0
        pts[k + 1, live] = half  # keep the more accurate composition
        count[live] += 1
        if in_domain is not None and live.size:
            out = ~in_domain(half)
            left[live[out]] = True
            live = live[~out]
        if not live.size:
            break
    return pts, count, err, left, failed


def integrate_field(field_fn, start, arc_length, steps, in_domain=None):
    """RK4 polylines of du/ds = field(u) with per-step halving error control.

    The field takes a batch: field_fn maps (M, n) states to (M, n) vectors
    and in_domain maps them to an (M,) mask.  A 2-D start (N, n) is N curves
    integrated together, arc_length a scalar or one arc per row, and points
    holds the end state of each curve.  A 1-D start is one curve, run as a
    one-row batch, and points is its polyline.

    A curve stops before a non-finite field value and at its first point
    outside in_domain.  It is integrated again with twice the steps, at most
    MAX_REFINE times, while it stopped early on the field or its error
    estimate exceeds INTEGRATION_TOL * max(|arc|, ARC_FLOOR).

    info holds error_estimate and left_domain (one per row for a batch),
    steps (the step count of each curve's last pass, summed), fieldCalls
    and fieldRows (the field's calls and the rows they took, all passes),
    and tolerance_met = False when a curve ends over budget or stopped on
    the field; a batch also holds the row masks missed and failed.
    """
    start = np.asarray(start, dtype=float)
    single = start.ndim == 1
    if single:
        start = start[None]
    N = len(start)
    arcs = np.broadcast_to(np.asarray(arc_length, dtype=float), N)
    budget = INTEGRATION_TOL * np.maximum(np.abs(arcs), ARC_FLOOR)
    ends = start.copy()
    err = np.zeros(N)
    left = np.zeros(N, dtype=bool)
    failed = np.zeros(N, dtype=bool)
    steps_used = np.zeros(N, dtype=int)
    todo = np.arange(N)
    n_steps = max(1, int(steps))
    calls = []

    def counted(U):
        calls.append(len(U))
        return field_fn(U)

    for _ in range(MAX_REFINE + 1):
        pts, count, e, l, f = _rk4_pass(counted, start[todo], arcs[todo] / n_steps,
                                        n_steps, in_domain)
        ends[todo] = pts[count - 1, np.arange(len(todo))]
        err[todo], left[todo], failed[todo], steps_used[todo] = e, l, f, n_steps
        accepted = ~f & ((e <= budget[todo]) | l)
        todo = todo[~accepted]
        if not todo.size:
            break
        n_steps *= 2
    info = {"steps": int(steps_used.sum()), "fieldCalls": len(calls), "fieldRows": sum(calls)}
    if todo.size:
        info["tolerance_met"] = False
    if single:
        info.update(error_estimate=float(err[0]), left_domain=bool(left[0]))
        return pts[:count[0], 0], info
    missed = np.zeros(N, dtype=bool)
    missed[todo] = True
    info.update(error_estimate=err, left_domain=left, missed=missed, failed=failed)
    return ends, info


def characteristic_flow(sys_: QuasilinearSystem, slot, start, arc_length,
                        steps=64, frame="auto", t=0.0, x=0.0):
    """Integrate du/ds = r_slot(u) from admissible start states: a 1-D start
    is one curve and returns its polyline, a 2-D start (N, n) is N curves in
    one integrate_field batch and returns their end states.  The base frame
    at the first start state (FrameMachine.base, which raises where it fails
    a gate) is the reference of the field's near frames,
    FrameMachine.frames(..., lefts=False).rights, so the flow reads the
    frames sweeps read, NaN where one fails a gate.  Numeric frames are
    aligned to the reference, which fixes the orientation and scale of the
    field."""
    start = np.asarray(start, dtype=float)
    n = start.shape[-1]
    rows = start.reshape(-1, n)
    if not sys_.in_domain(t, x, rows).all() or sys_.is_excluded(t, x, rows).any():
        raise DomainError("start state is outside the admissible domain")
    if slot not in range(n):
        raise IndexError(f"flow slot out of range 0..{n - 1}")
    machine = FrameMachine(sys_, frame)
    reference = machine.base(t, x, rows[0])

    def field(U):
        return machine.frames(t, x, U, reference, lefts=False).rights[:, slot]

    return integrate_field(field, start, arc_length, steps,
                           in_domain=lambda U: sys_.in_domain(t, x, U))


# ---------------------------------------------------------------------------
# numeric construction of the decoupling map
# ---------------------------------------------------------------------------

def _slice_field(machine, reference, t, x, legs):
    """Batched field r_slot / (ell . r_slot), legs mapping a level to its
    (slot, ell), on states that carry their level as a last column (field
    component 0).  Along it the slice offset ell . (u - base) falls at unit
    rate whatever the scale or sign of r, so a leg of arc -offset lands on
    the slice.  Rows where the flow runs within 1e-12 of parallel to the
    slice, or the frame is rejected, are NaN."""
    def field(V):
        n = V.shape[1] - 1
        rights = machine.frames(t, x, V[:, :n], reference, lefts=False).rights
        out = np.zeros(V.shape)
        # each level's rows as one group keep the bits of the level run alone
        for level, (slot, ell) in legs.items():
            g = V[:, n] == level
            r = rights[g][:, slot]
            d = r @ ell
            ok = np.abs(d) > 1e-12 * np.linalg.norm(r, axis=1)
            out[g, :n] = np.where(ok[:, None], r / np.where(ok, d, 1.0)[:, None], np.nan)
        return out
    return field


def _shoot(machine, base_frame, t, x, start, base_point, levels, work):
    """Carry the states start (N, n), for each level (Minv, flow), along the
    flows of the slots in flow, the last rows of Minv, onto the slice where
    those coordinates of u - base_point vanish.  The levels run as one stack:
    each shot runs leg q as one batch over the rows still off the slice of
    every level with a q-th slot.  Returns the landing states (levels, N, n)
    and the masks (levels, N) of rows that reached the slice and of rows
    with a leg over its error budget."""
    N, n = start.shape
    ells = [Minv[len(Minv) - len(flow):] for Minv, flow in levels]
    cur = np.tile(start, (len(levels), 1))  # level lv holds rows lv * N to (lv + 1) * N
    reached = np.zeros(len(cur), dtype=bool)
    missed = np.zeros(len(cur), dtype=bool)
    active = np.arange(len(cur))
    for _ in range(MAX_SHOTS):
        for lv, ell in enumerate(ells):
            rows = active[active // N == lv]
            eta = (cur[rows] - base_point) @ ell.T
            reached[rows[np.linalg.norm(eta, axis=1) <= SHOOT_TOL]] = True
        active = active[~reached[active]]
        if not active.size:
            break
        work["shots"] += 1
        for q in range(max(map(len, ells))):
            legs, rows, arcs = {}, [], []
            for lv, ell in enumerate(ells):
                if q < len(ell):
                    at = active[active // N == lv]
                    eta_q = (cur[at] - base_point) @ ell[q]
                    move = np.abs(eta_q) >= 1e-14
                    legs[lv] = levels[lv][1][q], ell[q]
                    rows.append(at[move])
                    arcs.append(-eta_q[move])
            rows = np.concatenate(rows)
            if not rows.size:
                continue
            field = _slice_field(machine, base_frame, t, x, legs)
            end, info = integrate_field(field, np.column_stack([cur[rows], rows // N]),
                                        np.concatenate(arcs), steps=8)
            cur[rows] = end[:, :n]
            work.update(legs=1, fieldCalls=info["fieldCalls"],
                        fieldEvaluations=info["fieldRows"], steps=info["steps"])
            missed[rows[info["missed"]]] = True
            active = active[~np.isin(active, rows[info["failed"]])]
    shape = (len(levels), N)
    return cur.reshape(shape + (n,)), reached.reshape(shape), (missed & reached).reshape(shape)


def construct_transform_numeric(sys_: QuasilinearSystem, partition: PartitionScheme,
                                base_point, grid_counts, frame="auto",
                                report=None, t=0.0, x=0.0):
    """Flow-coordinate construction of the decoupling map on a state grid.

    For block level i the annihilating distribution is spanned by the right
    autovectors of the forbidden blocks.  All admissible grid states are
    carried together along those flows, each normalized to move its own
    slice coordinate at unit rate, onto a transversal slice through the base
    point; the slice coordinates of the landing point provide the block's
    map components.  Quality gates: the annihilation residual and the
    determinant of the map's grid-difference Jacobian (_construction_quality).
    The work done is returned under "work": batched shots and legs, batched
    field calls, and the field rows and RK4 steps of the shooting legs.
    """
    n = sys_.n
    partition.validate_for(n)
    base_point = np.asarray(base_point, dtype=float)
    if not sys_.in_domain(t, x, base_point) or sys_.is_excluded(t, x, base_point):
        raise DomainError("base point is outside the admissible domain")
    machine = FrameMachine(sys_, frame)
    base_frame = machine.base(t, x, base_point)

    # the grid spans the domain box less 5 % of each side at either end
    axes = []
    for nm, c in zip(sys_.states, grid_counts):
        lo, hi = sys_.domain[nm]
        pad = 0.05 * (hi - lo)
        axes.append(np.linspace(lo + pad, hi - pad, int(c)))
    mesh = np.meshgrid(*axes, indexing="ij")
    grid_shape = mesh[0].shape
    points = np.stack([g.ravel() for g in mesh], axis=1)
    admissible = np.flatnonzero(~sys_.is_excluded(t, x, points))

    work = Counter(dict.fromkeys(["shots", "legs", "fieldCalls", "fieldEvaluations", "steps"], 0))
    # slots in block order: each level's columns of M are the slots it keeps,
    # then those it flows along
    col_order = [s for blk in partition.blocks for s in blk]
    specs = []
    for i, blk in enumerate(partition.blocks):
        keep = partition.allowed(i)
        flow = [s for s in col_order if s not in keep]
        M = np.column_stack([base_frame.rights[0, s] for s in keep + flow])
        specs.append((blk, keep, flow, M, np.linalg.inv(M) if flow else None))
    levels = [(Minv, flow) for _, _, flow, _, Minv in specs if flow]
    land, reached, level_missed = _shoot(machine, base_frame, t, x, points[admissible],
                                         base_point, levels, work)
    flagged, missed = int(np.count_nonzero(~reached)), int(np.count_nonzero(level_missed))
    H_parts = []
    lv = 0
    for i, (blk, keep, flow, M, Minv) in enumerate(specs):
        sel = [keep.index(s) for s in blk]
        if not flow:
            # unconstrained block: coordinates in the base frame directions
            H_parts.append(np.linalg.solve(M, (points - base_point).T).T[:, sel])
            continue
        hit = reached[lv]
        xi = (land[lv][hit] - base_point) @ Minv[: len(keep)].T
        vals = np.full((len(points), len(blk)), np.nan)
        vals[admissible[hit]] = xi[:, sel]
        if np.isnan(vals).all():
            raise ShootingFailed(f"no grid state reached the level-{i + 1} slice")
        H_parts.append(vals)
        lv += 1

    H_grid = np.concatenate(H_parts, axis=1)
    # reorder columns to slot order: parts were emitted block by block
    inv_order = np.argsort(col_order)
    H_grid = H_grid[:, inv_order]

    quality = _construction_quality(sys_, partition, axes, grid_shape, H_grid,
                                    machine, flagged, t, x)
    quality["toleranceMissed"] = missed
    quality["untrusted"] = bool(report is None or
                                getattr(report, "verdict", "fail") != "pass")
    return {
        "axes": axes,
        "gridShape": grid_shape,
        "values": H_grid.reshape(*grid_shape, n),
        "blocks": [list(b) for b in partition.blocks],
        "basePoint": base_point.tolist(),
        "quality": quality,
        "work": dict(work),
    }


def interpolate_grid(axes, values, u):
    """Multilinear interpolation of gridded map values at one state.  No
    package code calls it; bench/tracer.py resolves it by name."""
    u = np.asarray(u, dtype=float)
    nd = len(axes)
    idx = []
    frac = []
    for d in range(nd):
        ax = axes[d]
        j = int(np.clip(np.searchsorted(ax, u[d]) - 1, 0, len(ax) - 2))
        idx.append(j)
        frac.append((u[d] - ax[j]) / (ax[j + 1] - ax[j]))
    out = 0.0
    for corner in range(2 ** nd):
        w = 1.0
        loc = []
        for d in range(nd):
            bit = (corner >> d) & 1
            loc.append(idx[d] + bit)
            w *= frac[d] if bit else (1.0 - frac[d])
        out = out + w * values[tuple(loc)]
    return out


def _construction_quality(sys_, partition, axes, grid_shape, H_grid, machine,
                          flagged, t, x):
    """Grid-Jacobian gates of a constructed map: the largest annihilation
    residual (grad H_a) . r_b of its np.gradient Jacobian over the interior
    grid states, the number of those states it was checked at, and the
    smallest |det| of that Jacobian.  Cells whose np.gradient stencil touches
    a flagged (NaN) value are skipped and counted, not filled."""
    n = sys_.n
    values = H_grid.reshape(*grid_shape, n)

    # grid-difference Jacobian: annihilation and invertibility
    grads = np.stack(np.gradient(values, *axes, axis=tuple(range(n))), axis=-1)
    skipped = ~(np.isfinite(grads).all(axis=(-2, -1)) & np.isfinite(values).all(axis=-1))
    dets = np.abs(np.linalg.det(grads[~skipped]))
    min_det = float(np.min(dets)) if dets.size else float("nan")
    # annihilation at the interior states the difference stencil covers
    cells = np.array(list(np.ndindex(*[max(1, s - 2) for s in grid_shape])), dtype=int)
    cells = cells.reshape(-1, n) + 1
    cells = cells[~skipped[tuple(cells.T)]]
    U = np.stack([axes[d][cells[:, d]] for d in range(n)], axis=-1)
    admissible = ~sys_.is_excluded(t, x, U)
    cells, U = cells[admissible], U[admissible]
    frames = machine.frames(np.full(len(U), t), np.full(len(U), x), U, lefts=False)
    ok = np.array([err is None for err in frames.errors], dtype=bool)
    ann = np.abs(_annihilation(grads[tuple(cells[ok].T)], frames.rights[ok],
                               partition.forbidden_pairs()))
    return {
        "gridAnnihilationMax": float(np.max(ann, initial=0.0)),
        "gridCellsChecked": int(np.count_nonzero(ok)),
        "minAbsGridJacobianDet": min_det,
        "gridCellsSkipped": int(np.count_nonzero(skipped)),
        "flaggedCells": flagged,
    }
