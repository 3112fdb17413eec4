"""Job lists of the four benchmark workloads and their ground-truth checks.

Every job runs in-process through a public entry point: ``qldecouple.cli.main``
for CLI jobs, the package API for the in-memory oracle jobs.  A job's ``run``
returns None when the outcome matches ground truth and a one-line reason when
it does not.  Expected outcomes come from what is known about each model, not
from what the code prints today:

* barotropic ``p0*rho^3`` decouples fully as 1+1 with the Riemann invariants
  ``v +- sqrt(3) rho``; ``p0*rho^2`` does not, and its gradient residual at
  ``(rho, v)`` is ``sqrt(rho / 2)``;
* the isentropic fixture carries ``T13 = T23 != 0``, so neither its partial
  nor its full 1,1,1 partition passes and its hinted map fails verification;
* threadline with ``T = k/m`` is block-triangular as (2, 2);
* a conjugated synthetic oracle decouples by construction in its own blocks,
  and one with an injected off-block dependence does not.

Every CLI job that takes ``--workers`` passes ``--workers 1``, so
``QLDECOUPLE_WORKERS`` cannot leak in.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

GOLDEN_SEED = 42
ORACLE_SEEDS = 8
ORACLE_SAMPLES = 60
SQRT3 = math.sqrt(3.0)

BAROTROPIC = ["--model", "barotropic", "--param", "p0=1"]
CUBIC = BAROTROPIC + ["--pressure", "p0*rho^3"]
QUADRATIC = BAROTROPIC + ["--pressure", "p0*rho^2"]
ISENTROPIC = ["--model", "isentropic", "--param", "p0=1"]
THREADLINE = ["--model", "threadline", "--param", "k=1"]
THREADLINE_INITIAL = ("1 + 0.05*sin(2*pi*x);0.1*cos(2*pi*x);"
                      "0.05*sin(2*pi*x);0.02*cos(2*pi*x)")

# Jobs whose ground truth says "pass" but which fail at the parent commit for
# a known reason.  They stay in the workload and are counted in ``failed``;
# only a failure of any other job makes a run incorrect.
KNOWN_DEFECTS = {
    "oracle-emitted-sourced-check":
        "the JSON model path has no block-adapted frame for source "
        "conditions, so a sourced emitted oracle fails with a source "
        "residual near 2e-4",
}


class CliJob:
    """One ``qldecouple.cli.main`` call with its expected exit code.

    ``argv`` is a list or a callable taking the workload state (used when a
    job reads a file an earlier job wrote).  ``check`` receives the report
    payload and its path, and may record state for later jobs.
    """

    def __init__(self, name, argv, expect_exit, check=None, workers=True):
        self.name = name
        self.argv = argv
        self.expect_exit = expect_exit
        self.check = check
        self.options = ["--workers", "1"] if workers else []

    def run(self, qd, out_dir, state):
        argv = self.argv(state) if callable(self.argv) else list(self.argv)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = qd.cli.main(argv + self.options + ["--out", out_dir])
        lines = stdout.getvalue().strip().splitlines()
        if code != self.expect_exit:
            err = stderr.getvalue().strip().splitlines()
            detail = err[-1] if err else ""
            if lines and lines[-1].endswith("report.json"):
                detail = f"max residual {_report(lines[-1])['report'].get('maxResidual')}"
            return f"exit {code}, expected {self.expect_exit}" + (f": {detail}" if detail else "")
        if self.check is None:
            return None
        if not lines:
            return "no output path printed"
        return self.check(lines[-1], state)


class CallJob:
    """One in-memory call through the package API."""

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def run(self, qd, out_dir, state):
        return self.fn(qd)


def _report(path):
    with open(path) as fh:
        return json.load(fh)


def _verdict(want):
    def check(path, state):
        got = _report(path)["report"]["verdict"]
        return None if got == want else f"verdict {got}, expected {want}"
    return check


def _golden(root, name):
    """Byte-compare a report, without its timing, to tests/goldens/<name>.json
    in the same way test_golden_reports does."""
    golden_path = os.path.join(root, "tests", "goldens", f"{name}.json")

    def check(path, state):
        payload = _report(path)
        payload.pop("timing", None)
        got = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        with open(golden_path) as fh:
            want = fh.read()
        return None if got == want else f"report differs from golden {name}.json"
    return check


def _quadratic_residual_law(path, state):
    rep = _report(path)["report"]
    arg = rep["families"]["gradient"]["argmax"]
    want = math.sqrt(arg["u"][0] / 2.0)
    if not 0.5 <= rep["maxResidual"] <= 1.0:
        return f"max residual {rep['maxResidual']:.4g} outside [0.5, 1]"
    if abs(abs(arg["residual"]) - want) > 1e-6 * want:
        return f"argmax residual {arg['residual']:.10g}, expected sqrt(rho/2) = {want:.10g}"
    return None


def _search_finds(blocks):
    def check(path, state):
        found = [p["blocks"] for p in _report(path)["report"]["passing"]]
        return None if blocks in found else f"{blocks} not among passing {found}"
    return check


def _max_field(field, bound, above=False):
    def check(path, state):
        value = _report(path)["report"][field]
        ok = value >= bound if above else value <= bound
        rel = ">=" if above else "<="
        return None if ok else f"{field} {value:.4g}, expected {rel} {bound:g}"
    return check


def _riemann_map(path, state):
    """The constructed map has no flagged cells, and its first component is a
    strictly monotone function of one Riemann invariant v +- sqrt(3) rho."""
    rep = _report(path)["report"]
    flagged = rep["quality"]["flaggedCells"]
    if flagged:
        return f"{flagged} flagged cells"
    grid = np.loadtxt(os.path.join(os.path.dirname(path), "transform_grid.csv"),
                      delimiter=",", skiprows=1)
    rho, v, h1 = grid[:, 0], grid[:, 1], grid[:, 2]
    for sign in (1.0, -1.0):
        invariant = v + sign * SQRT3 * rho
        diffs = np.diff(h1[np.argsort(invariant, kind="stable")])
        if np.all(diffs > -1e-9) or np.all(diffs < 1e-9):
            return None
    return "H1 is not a monotone function of either Riemann invariant"


def _l1_within(bound):
    def check(path, state):
        comparison = _report(path)["report"].get("comparison")
        if not comparison:
            return "no coupled/hierarchical comparison in the report"
        l1 = comparison[-1]["L1total"]
        return None if l1 <= bound else f"final L1total {l1:.4g} > {bound:g}"
    return check


def _oracle_file(key, with_source):
    """oracle-gen wrote a loadable n = 3, (2, 1) document; remember its path."""
    def check(path, state):
        with open(path) as fh:
            doc = json.load(fh)
        if doc["partitionHint"]["blocks"] != [[0, 1], [2]]:
            return f"partition hint {doc['partitionHint']['blocks']}, expected [[0, 1], [2]]"
        if ("g" in doc) != with_source:
            return "source terms present" if "g" in doc else "source terms missing"
        state[key] = path
        return None
    return check


def sweep(qd, seed, root):
    """Per-sample residual evaluation on the built-in models."""
    s = ["--seed", str(seed)]
    golden = ["--samples", "100", "--seed", str(GOLDEN_SEED)]
    full11 = ["--partition", "1,1", "--mode", "full"]
    return [
        CliJob("golden-barotropic-full",
               ["check"] + CUBIC + full11 + golden, 0,
               _golden(root, "barotropic_full")),
        CliJob("golden-isentropic-partial",
               ["check"] + ISENTROPIC + ["--partition", "1,1,1", "--mode", "partial"] + golden,
               1, _golden(root, "isentropic_partial")),
        CliJob("golden-threadline-partial",
               ["check"] + THREADLINE + golden, 0, _golden(root, "threadline_partial")),
        CliJob("check-barotropic-cubic",
               ["check"] + CUBIC + full11 + ["--samples", "1000"] + s, 0, _verdict("pass")),
        CliJob("check-barotropic-quadratic",
               ["check"] + QUADRATIC + full11 + ["--samples", "1000"] + s, 1,
               _quadratic_residual_law),
        CliJob("check-isentropic-full",
               ["check"] + ISENTROPIC + ["--partition", "1,1,1", "--mode", "full",
                                         "--samples", "300"] + s, 1, _verdict("fail")),
        CliJob("check-threadline-hint",
               ["check"] + THREADLINE + ["--samples", "300"] + s, 0, _verdict("pass")),
        CliJob("check-numeric-barotropic-cubic",
               ["check"] + CUBIC + full11 + ["--frame", "numeric", "--samples", "300"] + s,
               0, _verdict("pass")),
        CliJob("check-numeric-isentropic-partial",
               ["check"] + ISENTROPIC + ["--partition", "1,1,1", "--mode", "partial",
                                         "--frame", "numeric", "--samples", "300"] + s,
               1, _verdict("fail")),
        CliJob("search-barotropic-cubic",
               ["search"] + CUBIC + ["--mode", "full", "--samples", "300"] + s, 0,
               _search_finds([[0], [1]])),
        CliJob("search-threadline",
               ["search"] + THREADLINE + ["--samples", "100"] + s, 0,
               _search_finds([[0, 1], [2, 3]])),
        CliJob("verify-barotropic-closed-form",
               ["verify-transform"] + BAROTROPIC
               + ["--transform", "v + sqrt(3)*rho;v - sqrt(3)*rho"] + full11 + s,
               0, _max_field("annihilationMax", 1e-9)),
        CliJob("verify-isentropic-hints",
               ["verify-transform"] + ISENTROPIC + s, 1, _verdict("fail")),
        CliJob("nijenhuis-barotropic-cubic",
               ["nijenhuis"] + CUBIC + ["--tol", "1e-7"] + s, 0,
               _max_field("maxResidual", 1e-7)),
        CliJob("nijenhuis-barotropic-quadratic",
               ["nijenhuis"] + QUADRATIC + ["--tol", "1e-7"] + s, 1,
               _max_field("maxResidual", 0.1, above=True)),
    ]


def _oracle_shape(seed):
    """The criterion-5 matrix: n = 3, 4 and two block counts, sources on
    even seeds.  Eight consecutive seeds cover each shape twice."""
    n = 3 + seed % 2
    k = 2 + (seed // 2) % 2
    sizes = {(3, 2): (2, 1), (3, 3): (1, 1, 1), (4, 2): (2, 2), (4, 3): (1, 1, 2)}[(n, k)]
    return n, sizes, seed % 2 == 0


def _oracle_check(entry, plan, sound):
    def fn(qd):
        scheme = qd.PartitionScheme(entry.extras["blocks"], "partial")
        report = qd.check_partition(entry.system, scheme, plan, tol=1e-6)
        if sound:
            return None if report.verdict == "pass" else \
                f"sound oracle fails, max residual {report.max_residual:.3g}"
        if report.verdict == "fail" and (report.max_residual or 0.0) >= 1e-3:
            return None
        return f"defect missed: verdict {report.verdict}, max residual {report.max_residual}"
    return fn


def oracle(qd, seed, root):
    """Conjugated synthetic systems with numeric frames, in memory and as
    emitted n = 3 documents.  Emitted n = 4 documents are left out: one CLI
    check there spends most of half a minute parsing and differentiating
    megabytes of expressions."""
    plan = qd.SamplePlan(count=ORACLE_SAMPLES, seed=seed)
    jobs = []
    for s in range(seed, seed + ORACLE_SEEDS):
        n, sizes, with_source = _oracle_shape(s)
        for sound in (True, False):
            _, _, entry = qd.build_synthetic_triangular(
                seed=s, n=n, block_sizes=sizes, with_source=with_source,
                off_block_defect=0.0 if sound else 0.1)
            label = "sound" if sound else "defect"
            jobs.append(CallJob(f"oracle-{s}-{label}", _oracle_check(entry, plan, sound)))
    check = ["--frame", "numeric", "--samples", str(ORACLE_SAMPLES), "--seed", str(seed)]
    # oracle-gen keeps its default seed: expression size, and so the cost of
    # the emitted-document checks, varies a lot from one generated system to
    # the next; the workload seed still sets the checks' sample plan
    gen = ["oracle-gen", "--n", "3", "--blocks", "2,1"]
    for key, extra in (("homogeneous", []), ("sourced", ["--with-source"])):
        jobs.append(CliJob(f"oracle-emitted-{key}-gen", gen + extra, 0,
                           _oracle_file(key, bool(extra)), workers=False))
        jobs.append(CliJob(f"oracle-emitted-{key}-check",
                           lambda state, key=key: ["check", "--model", state[key]] + check,
                           0, _verdict("pass")))
    return jobs


def construct(qd, seed, root):
    """Numeric flow-coordinate construction of the barotropic map."""
    argv = (["decouple"] + CUBIC + ["--partition", "1,1", "--mode", "full",
                                    "--base-point", "1.0,0.0", "--samples", "100",
                                    "--grid", "6,6", "--seed", str(seed)])
    return [
        CliJob("decouple-hinted", argv, 0, _riemann_map),
        CliJob("decouple-numeric", argv + ["--frame", "numeric"], 0, _riemann_map),
    ]


def simulate(qd, seed, root):
    """Batched coupled and hierarchical solves.  The inputs do not depend on
    the seed; it only enters the run configuration."""
    s = ["--seed", str(seed)]
    baro = (["simulate"] + CUBIC + ["--initial", "1 + 0.1*sin(2*pi*x);0",
                                    "--cells", "800", "--t-end", "0.1"] + s)
    return [
        CliJob("simulate-barotropic", baro, 0, _l1_within(0.05)),
        CliJob("simulate-barotropic-upwind", baro + ["--scheme", "upwindCharacteristic"],
               0, _l1_within(0.05)),
        CliJob("simulate-barotropic-outflow", baro + ["--boundary", "outflow"],
               0, _l1_within(0.05)),
        CliJob("simulate-threadline",
               ["simulate"] + THREADLINE + ["--initial", THREADLINE_INITIAL,
                                            "--cells", "800", "--t-end", "0.05"] + s,
               0, _l1_within(0.1)),
    ]


WORKLOADS = {
    "sweep": sweep,
    "oracle": oracle,
    "construct": construct,
    "simulate": simulate,
}
