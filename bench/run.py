"""Benchmark of the qldecouple package: four workloads of fixed jobs.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.

With ``--trace 0`` the run makes passes over the job list for at most
``--seconds`` (at least one pass).  Before each pass it sets the workload up
several times, importing the package afresh each time, and reports the
median over all set-ups as ``setup_s``.  ``wall_s`` and
``cpu_s`` are the sums over jobs of each job's median time across passes.
With ``--trace 1`` it runs one pass untraced and one pass under the
outside-in tracer (``tracer.py``), prints the per-layer metrics and writes
the spans to ``.bench_out/``.  Each job's outcome is checked against ground
truth in both modes (``workloads.py``).  ``--workload all`` runs each
workload in a fresh process and prints a table.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it,
starting with ``#``, record the run's conditions and every failed job.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up runs this many times before every pass, each time from a collected
# heap: its samples spread over the run as the passes do, and every pass runs
# on freshly built inputs rather than on caches warmed by the pass before.
SETUP_REPEATS = 4
PACKAGE_MODULES = ("cli", "conditions", "eigen", "exprlang", "hypsolve", "models",
                   "system", "transform")
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "QLDECOUPLE_WORKERS")


def import_package():
    """Import qldecouple afresh from this checkout's src/ and return it."""
    for name in [m for m in sys.modules if m == "qldecouple" or m.startswith("qldecouple.")]:
        del sys.modules[name]
    qd = importlib.import_module("qldecouple")
    importlib.import_module("qldecouple.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(qd.__file__))) != SRC:
        raise ImportError(f"qldecouple imported from {qd.__file__}, not from {SRC}")
    return qd


def cpu_seconds():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(qd, jobs, tmp, tracer=None):
    """Run every job once; returns [(wall_s, cpu_s, failure or None)] and the
    bytes the CLI jobs wrote."""
    state, results, written = {}, [], 0
    gc.collect()  # every pass starts from a collected heap
    for i, job in enumerate(jobs):
        out_dir = os.path.join(tmp, f"job{i}")
        if tracer is not None:
            tracer.job = i
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            failure = job.run(qd, out_dir, state)
        except Exception as err:  # a raising job is a failed job, not a crash
            failure = f"raised {type(err).__name__}: {err}"
        results.append((time.perf_counter() - w0, cpu_seconds() - c0, failure))
        for base, _, files in os.walk(out_dir):
            written += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    if tracer is not None:
        tracer.job = -1
    for i in range(len(jobs)):
        shutil.rmtree(os.path.join(tmp, f"job{i}"), ignore_errors=True)
    return results, written


def run_conditions():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qldecouple")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "env": {k: os.environ.get(k) for k in BLAS_VARIABLES},
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def summarize(jobs, passes):
    """Failures over all passes; a job counts once per pass it fails."""
    failed, correct = 0, True
    for results in passes:
        for job, (_, _, failure) in zip(jobs, results):
            if failure is None:
                continue
            failed += 1
            known = workloads.KNOWN_DEFECTS.get(job.name)
            correct = correct and known is not None
            print(f"# FAILED {job.name}: {failure}" + (f" (known defect: {known})" if known else ""))
    return failed, correct


def set_up(build, seed, times):
    """Import the package afresh and build the workload's jobs, SETUP_REPEATS
    times; appends each duration to ``times`` and returns the last build."""
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        qd = import_package()
        jobs = build(qd, seed, ROOT)
        times.append(time.perf_counter() - t0)
    return qd, jobs


def measure(args):
    build = workloads.WORKLOADS[args.workload]
    print("# conditions " + json.dumps(run_conditions(), sort_keys=True))
    setup, passes = [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        # start another pass only while the longest one so far still fits
        start, longest = time.perf_counter(), 0.0
        while not passes or time.perf_counter() - start + longest <= args.seconds:
            t0 = time.perf_counter()
            qd, jobs = set_up(build, args.seed, setup)
            passes.append(run_pass(qd, jobs, tmp)[0])
            longest = max(longest, time.perf_counter() - t0)
    failed, correct = summarize(jobs, passes)
    attempted = len(jobs) * len(passes)
    walls = [statistics.median(p[i][0] for p in passes) for i in range(len(jobs))]
    cpus = [statistics.median(p[i][1] for p in passes) for i in range(len(jobs))]
    for job, w, c in zip(jobs, walls, cpus):
        print(f"# job {job.name}: wall {w:.4f} s, cpu {c:.4f} s")
    wall, cpu = sum(walls), sum(cpus)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# {args.workload}: {len(jobs)} jobs x {len(passes)} passes, "
          f"failed_frac {failed / attempted:.4f} ratio")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "cpu_s": {"value": cpu, "unit": "s"},
                        "peak_rss_mb": {"value": peak, "unit": "MB"},
                        "setup_s": {"value": statistics.median(setup), "unit": "s"}}}


def trace(args):
    qd = import_package()
    print("# conditions " + json.dumps(run_conditions(), sort_keys=True))
    modules = {key: getattr(qd, key) for key in PACKAGE_MODULES}
    modules["qldecouple"] = qd
    modules["numpy.linalg"] = np.linalg
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        jobs = workloads.WORKLOADS[args.workload](qd, args.seed, ROOT)
        plain, _ = run_pass(qd, jobs, tmp)
        tr = tracer.Tracer()
        tr.install(modules)
        try:
            jobs = workloads.WORKLOADS[args.workload](qd, args.seed, ROOT)
            traced, written = run_pass(qd, jobs, tmp, tracer=tr)
        finally:
            tr.uninstall()
    failed, correct = summarize(jobs, [plain, traced])
    ratio = sum(r[0] for r in traced) / sum(r[0] for r in plain)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
    tr.save(path, [job.name for job in jobs])
    print(f"# {len(tr.span_start)} spans written to {os.path.relpath(path, ROOT)}")
    return {"correct": correct, "attempted": 2 * len(jobs), "failed": failed,
            "metrics": tr.metrics(ratio, written)}


def run_all(args):
    """Each workload in a fresh process, so peak RSS and set-up are its own."""
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"[{name}] exited with code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    for name, result in rows:
        print(f"\n{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.4f} ratio")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "qldecouple")):
        sys.stderr.write(f"no qldecouple package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    result = trace(args) if args.trace else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
