"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the qldecouple modules, and
the ``numpy.linalg`` entry points the package calls, from outside the
package: nothing under ``src/`` knows about it.  A function is replaced in
every module that binds it by name (``load_system`` lives in ``system`` and
is imported into ``conditions``, ``models``, ``cli`` and the package), and a
method is replaced on its class.

Each call of a wrapped name records a span (name, start, end, parent span,
job).  A name that is already open on the stack is not traced again, so
recursive or nested calls of one layer (``exprlang.evaluate`` on a subtree,
the conjugated ``eval_matrix`` calling the triangular one) count once, at
the outermost call.  A span's self time is its duration minus the time its
child spans cover.  Spans stay in memory and are written once, by ``save``.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict

import numpy as np

# span name -> (module under qldecouple, or "numpy.linalg"; attributes)
TRACED = {
    "cli.main": ("cli", ["main"]),
    "models.build": ("models", ["build", "build_barotropic", "build_isentropic",
                                "build_threadline", "build_synthetic_triangular",
                                "emit_synthetic_document"]),
    "system.load": ("system", ["load_system"]),
    "system.conjugate": ("system", ["conjugate_system"]),
    "system.eval_matrix": ("system", ["QuasilinearSystem.eval_matrix"]),
    "system.eval_matrix_batch": ("system", ["QuasilinearSystem.eval_matrix_batch"]),
    "system.eval_source": ("system", ["QuasilinearSystem.eval_source"]),
    "system.is_excluded": ("system", ["QuasilinearSystem.is_excluded"]),
    "system.dA": ("system", ["QuasilinearSystem.directional_matrix_derivative"]),
    "exprlang.parse": ("exprlang", ["parse"]),
    "exprlang.differentiate": ("exprlang", ["differentiate"]),
    "exprlang.compile": ("exprlang", ["compile_expression"]),
    "exprlang.evaluate": ("exprlang", ["evaluate"]),
    "eigen.frame_at": ("eigen", ["AnalyticFrameField.frame_at"]),
    "eigen.spectrum": ("eigen", ["spectrum_at"]),
    "eigen.align": ("eigen", ["align_frames"]),
    "eigen.eig_derivative": ("eigen", ["eigenvalue_directional_derivative"]),
    "conditions.check": ("conditions", ["check_partition"]),
    "conditions.search": ("conditions", ["search_partitions"]),
    "conditions.nijenhuis": ("conditions", ["nijenhuis_max"]),
    "conditions.frame_base": ("conditions", ["FrameMachine.base"]),
    "conditions.frame_sweep": ("conditions", ["FrameMachine.sweep"]),
    "transform.verify": ("transform", ["verify_transform"]),
    "transform.construct": ("transform", ["construct_transform_numeric"]),
    "transform.flow": ("transform", ["characteristic_flow"]),
    "transform.integrate": ("transform", ["integrate_field"]),
    "transform.interpolate": ("transform", ["interpolate_grid"]),
    "hypsolve.coupled": ("hypsolve", ["solve_coupled"]),
    "hypsolve.hierarchical": ("hypsolve", ["solve_hierarchical"]),
    "hypsolve.compare": ("hypsolve", ["compare_solutions"]),
    "linalg.eig": ("numpy.linalg", ["eig"]),
    "linalg.cond": ("numpy.linalg", ["cond"]),
    "linalg.inv": ("numpy.linalg", ["inv"]),
    "linalg.solve": ("numpy.linalg", ["solve"]),
    "linalg.svd": ("numpy.linalg", ["svd"]),
    "linalg.det": ("numpy.linalg", ["det"]),
}

# Reported per-layer metrics, in output order: (name, unit).  ``X.calls`` and
# ``X.self_s`` read the spans of X; the rest are counters set by the hooks
# below or by the runner, and ratios derived from them.
PER_LAYER = [
    ("eigen.frame_at.calls", "count"), ("eigen.frame_at.self_s", "s"),
    ("linalg.cond.calls", "count"), ("linalg.cond.self_s", "s"),
    ("transform.integrate.calls", "count"), ("transform.integrate.self_s", "s"),
    ("transform.integrate.steps", "count"), ("transform.integrate.field_evals", "count"),
    ("transform.integrate.tolerance_missed", "count"),
    ("transform.flow.calls", "count"), ("transform.flow.self_s", "s"),
    ("transform.construct.self_s", "s"), ("transform.interpolate.calls", "count"),
    ("transform.flagged_cells", "count"),
    ("transform.verify.calls", "count"), ("transform.verify.self_s", "s"),
    ("conditions.check.calls", "count"), ("conditions.check.self_s", "s"),
    ("conditions.frame_base.calls", "count"), ("conditions.frame_sweep.calls", "count"),
    ("conditions.samples.total", "count"), ("conditions.samples.evaluated", "count"),
    ("conditions.samples.excluded", "count"), ("conditions.samples.degenerate", "count"),
    ("conditions.evaluated_ratio", "ratio"),
    ("conditions.search.calls", "count"), ("conditions.search.self_s", "s"),
    ("conditions.search.pilot_pass_ratio", "ratio"),
    ("conditions.nijenhuis.calls", "count"), ("conditions.nijenhuis.self_s", "s"),
    ("system.eval_matrix.calls", "count"), ("system.eval_matrix.self_s", "s"),
    ("system.is_excluded.calls", "count"), ("system.is_excluded.self_s", "s"),
    ("system.eval_source.calls", "count"), ("system.eval_source.self_s", "s"),
    ("system.dA.calls", "count"), ("system.dA.self_s", "s"),
    ("system.eval_matrix_batch.calls", "count"), ("system.eval_matrix_batch.rows", "count"),
    ("system.eval_matrix_batch.self_s", "s"),
    ("system.load.calls", "count"), ("system.load.self_s", "s"),
    ("system.conjugate.self_s", "s"),
    ("eigen.eig_derivative.calls", "count"), ("eigen.eig_derivative.self_s", "s"),
    ("eigen.spectrum.calls", "count"), ("eigen.spectrum.self_s", "s"),
    ("eigen.align.calls", "count"), ("eigen.align.self_s", "s"),
    ("exprlang.parse.calls", "count"), ("exprlang.parse.self_s", "s"),
    ("exprlang.differentiate.calls", "count"), ("exprlang.differentiate.self_s", "s"),
    ("exprlang.compile.calls", "count"), ("exprlang.compile.self_s", "s"),
    ("exprlang.evaluate.calls", "count"), ("exprlang.evaluate.self_s", "s"),
    ("hypsolve.coupled.self_s", "s"), ("hypsolve.hierarchical.self_s", "s"),
    ("hypsolve.compare.self_s", "s"), ("hypsolve.steps", "count"),
    ("hypsolve.cell_updates", "count"),
    ("linalg.eig.calls", "count"), ("linalg.eig.matrices", "count"),
    ("linalg.eig.self_s", "s"),
    ("linalg.inv.calls", "count"), ("linalg.inv.self_s", "s"),
    ("linalg.solve.calls", "count"), ("linalg.solve.self_s", "s"),
    ("linalg.svd.calls", "count"), ("linalg.svd.self_s", "s"),
    ("linalg.det.calls", "count"), ("linalg.det.self_s", "s"),
    ("models.build.calls", "count"), ("models.build.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]


# -- hooks: read work counts at the boundary, from arguments and results ------

def _count_field_evals(tracer, args, kwargs):
    field_fn = args[0]

    def counted(u):
        tracer.counts["transform.integrate.field_evals"] += 1
        return field_fn(u)

    return (counted,) + args[1:], kwargs


def _integrate_done(tracer, result, args, kwargs):
    info = result[1]
    tracer.counts["transform.integrate.steps"] += info["steps"]
    if info.get("tolerance_met") is False:
        tracer.counts["transform.integrate.tolerance_missed"] += 1


def _construct_done(tracer, result, args, kwargs):
    tracer.counts["transform.flagged_cells"] += result["quality"]["flaggedCells"]


def _check_done(tracer, result, args, kwargs):
    c = tracer.counts
    c["conditions.samples.total"] += result.total_samples
    c["conditions.samples.evaluated"] += result.evaluated
    c["conditions.samples.excluded"] += result.excluded
    c["conditions.samples.degenerate"] += result.degenerate
    if tuple(kwargs.get("families", ())) == ("gradient",):
        # search_partitions prunes candidates with a gradient-only pilot check
        c["pilot.attempts"] += 1
        c["pilot.passes"] += result.verdict == "pass"


def _batch_rows(tracer, result, args, kwargs):
    tracer.counts["system.eval_matrix_batch.rows"] += args[3].shape[1]


def _solve_done(tracer, result, args, kwargs):
    steps = result.meta["steps"]
    tracer.counts["hypsolve.steps"] += steps
    tracer.counts["hypsolve.cell_updates"] += steps * result.meta["cells"]


def _eig_matrices(tracer, result, args, kwargs):
    shape = args[0].shape
    count = 1
    for d in shape[:-2]:
        count *= d
    tracer.counts["linalg.eig.matrices"] += count


HOOKS = {
    "transform.integrate": (_count_field_evals, _integrate_done),
    "transform.construct": (None, _construct_done),
    "conditions.check": (None, _check_done),
    "system.eval_matrix_batch": (None, _batch_rows),
    "hypsolve.coupled": (None, _solve_done),
    "hypsolve.hierarchical": (None, _solve_done),
    "linalg.eig": (None, _eig_matrices),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.job = -1
        self._open = []
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, prepare=None, after=None):
        if name not in self.names:
            self.names.append(name)
            self._open.append(0)
        nid = self.names.index(name)
        tracer, open_, stack, clock = self, self._open, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_[nid]:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(tracer, args, kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_job.append(tracer.job)
            frame = [idx, 0.0]
            stack.append(frame)
            open_[nid] = 1
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_[nid] = 0
                stack.pop()
                duration = end - start
                tracer.span_end[idx] = end
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules):
        """Wrap every name in TRACED.  ``modules`` maps a module key of TRACED
        ("cli", "system", ..., "numpy.linalg") to the module object; every
        qldecouple module is searched for bindings of a traced function."""
        package = [m for key, m in modules.items() if key != "numpy.linalg"]
        for name, (key, attrs) in TRACED.items():
            prepare, after = HOOKS.get(name, (None, None))
            module = modules[key]
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, method, self.wrap(name, getattr(cls, method),
                                                       prepare, after))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, prepare, after)
                owners = [module] if key == "numpy.linalg" else package
                for owner in owners:
                    for bound, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, bound, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, overhead_ratio, bytes_written):
        c = self.counts
        derived = {
            "conditions.evaluated_ratio":
                c["conditions.samples.evaluated"] / c["conditions.samples.total"]
                if c["conditions.samples.total"] else 0.0,
            "conditions.search.pilot_pass_ratio":
                c["pilot.passes"] / c["pilot.attempts"] if c["pilot.attempts"] else 0.0,
            "cli.bytes_written": bytes_written,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for metric, unit in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if metric in derived:
                value = derived[metric]
            elif field == "calls":
                value = self.calls[span]
            elif field == "self_s":
                value = self.self_s[span]
            else:
                value = c[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def save(self, path, jobs):
        """Write every span as columns of an .npz file; ``names`` and ``jobs``
        decode the name and job columns."""
        np.savez_compressed(
            path, name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            job=np.frombuffer(self.span_job, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(json.dumps(self.names)), jobs=np.array(json.dumps(jobs)))
