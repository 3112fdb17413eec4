"""Command-line driver.

Subcommands: check, search, verify-transform, decouple, simulate, nijenhuis,
oracle-gen, models.  Every run writes its outputs into a directory named by
a content hash of the run configuration, so identical configurations land in
identical places with identical bytes (timing fields aside).

Exit codes: 0 pass, 1 fail verdict, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import hypsolve, models, transform
from . import conditions as cond
from . import exprlang as ex
from .errors import ParseError, QLError, SchemaError, UnknownSymbol
from .system import SamplePlan, load_system

USAGE_ERRORS = (SchemaError, ParseError, UnknownSymbol)
# decouple passes when the partition check passes and the constructed map's
# grid Jacobian annihilates the forbidden autovectors to this bound at one
# interior grid state or more
GRID_ANNIHILATION_TOL = 1e-4


def _parser():
    p = argparse.ArgumentParser(prog="qldecouple",
                                description="decoupling analysis of first-order "
                                            "quasilinear systems in two variables")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True,
                        help="registry name (barotropic, isentropic, threadline) "
                             "or path to a model JSON file")
    common.add_argument("--param", action="append", default=[],
                        help="model parameter NAME=VALUE (repeatable)")
    common.add_argument("--pressure", help="barotropic pressure law p(rho)")
    common.add_argument("--f", dest="entropy_f", help="isentropic f(s) term")
    common.add_argument("--tension", help="threadline tension law T(m)")
    common.add_argument("--samples", type=int, default=200)
    common.add_argument("--strategy", choices=["lowDiscrepancy", "tensorGrid"],
                        default="lowDiscrepancy")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--sep-tol", type=float, default=1e-3)
    common.add_argument("--tol", type=float, default=1e-6)
    common.add_argument("--frame", choices=["auto", "analytic", "numeric"],
                        default="auto")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    common.add_argument("--out", default="runs", help="output parent directory")
    common.add_argument("-v", "--verbose", action="store_true")

    c = sub.add_parser("check", parents=[common],
                       help="evaluate the structure conditions for one partition")
    c.add_argument("--partition", help="block sizes, e.g. 1,1")
    c.add_argument("--blocks", help="explicit slot blocks, e.g. 0,1|2,3")
    c.add_argument("--mode", choices=["partial", "full"])
    c.add_argument("--gradient-path", choices=["auto", "fd"], default="auto")
    c.add_argument("--csv", action="store_true", help="stream residuals.csv")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("search", parents=[common],
                       help="enumerate partitions and report the passing ones")
    s.add_argument("--max-k", type=int)
    s.add_argument("--mode", choices=["partial", "full"], default="partial")
    s.set_defaults(func=cmd_search)

    vt = sub.add_parser("verify-transform", parents=[common],
                        help="verify a candidate decoupling map")
    vt.add_argument("--transform", help="semicolon-separated components U = H(u)")
    vt.add_argument("--inverse", help="semicolon-separated inverse components")
    vt.add_argument("--partition")
    vt.add_argument("--blocks")
    vt.add_argument("--mode", choices=["partial", "full"])
    vt.set_defaults(func=cmd_verify)

    d = sub.add_parser("decouple", parents=[common],
                       help="construct the decoupling map numerically")
    d.add_argument("--partition")
    d.add_argument("--blocks")
    d.add_argument("--mode", choices=["partial", "full"])
    d.add_argument("--base-point", required=True, help="comma-separated state")
    d.add_argument("--grid", default="10", help="grid counts per state, e.g. 12,12")
    d.set_defaults(func=cmd_decouple)

    sim = sub.add_parser("simulate", parents=[common],
                         help="coupled vs hierarchical solve comparison")
    sim.add_argument("--initial", required=True,
                     help="semicolon-separated initial data expressions of x")
    sim.add_argument("--cells", type=int, default=200)
    sim.add_argument("--t-end", type=float, default=0.1)
    sim.add_argument("--scheme", choices=list(hypsolve.SCHEMES),
                     default="laxFriedrichs")
    sim.add_argument("--hier-scheme", choices=list(hypsolve.SCHEMES),
                     default="upwindCharacteristic")
    sim.add_argument("--cfl", type=float, default=0.9)
    sim.add_argument("--boundary", choices=["periodic", "outflow"],
                     default="periodic")
    sim.set_defaults(func=cmd_simulate)

    nj = sub.add_parser("nijenhuis", parents=[common],
                        help="max Nijenhuis residual over the sampled box")
    nj.set_defaults(func=cmd_nijenhuis)

    og = sub.add_parser("oracle-gen",
                        help="emit a synthetic conjugated model JSON")
    og.add_argument("--seed", type=int, default=0)
    og.add_argument("--n", type=int, default=3)
    og.add_argument("--blocks", default="2,1", help="block sizes, e.g. 2,1")
    og.add_argument("--with-source", action="store_true")
    og.add_argument("--defect", type=float, default=0.0,
                    help="off-block dependence magnitude to inject")
    og.add_argument("--out", default="runs")
    og.set_defaults(func=cmd_oracle_gen)

    m = sub.add_parser("models", help="list or emit the built-in models")
    m.add_argument("action", choices=["list", "emit"])
    m.add_argument("name", nargs="?")
    m.add_argument("--param", action="append", default=[])
    m.add_argument("--pressure")
    m.add_argument("--f", dest="entropy_f")
    m.add_argument("--tension")
    m.add_argument("--out", default="runs")
    m.set_defaults(func=cmd_models)
    return p


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _builder_kwargs(args, model):
    params = {}
    for item in args.param:
        if "=" not in item:
            raise SchemaError(f"--param expects NAME=VALUE, got '{item}'")
        name, value = item.split("=", 1)
        params[name] = float(value)
    kw = {}
    if params:
        kw["parameters"] = params
    if getattr(args, "pressure", None):
        kw["pressure"] = args.pressure
    if getattr(args, "entropy_f", None):
        kw["f"] = args.entropy_f
    if getattr(args, "tension", None):
        kw["tension"] = args.tension
    if model == "threadline":
        # the threadline builder takes k as a keyword, not in parameters
        kw.pop("parameters", None)
        if "k" in params:
            kw["k"] = params["k"]
    return kw


def _build(name, kw):
    try:
        return models.build(name, **kw)
    except TypeError as err:
        raise SchemaError(f"option not supported by model '{name}': {err}") from None


def _resolve_model(args):
    name = args.model
    kw = _builder_kwargs(args, name)
    if name in models.REGISTRY:
        entry = _build(name, kw)
        return entry.system, entry.document
    if not os.path.exists(name):
        raise SchemaError(f"model '{name}' is neither a registry name nor a file")
    with open(name) as fh:
        doc = json.load(fh)
    return load_system(doc, name=os.path.basename(name)), doc


def _plan(args):
    return SamplePlan(count=args.samples, strategy=args.strategy, seed=args.seed,
                      separation_tolerance=args.sep_tol)


def _partition(args, sys_, required=True):
    mode = getattr(args, "mode", None)
    if getattr(args, "blocks", None):
        blocks = [[int(s) for s in chunk.split(",") if s != ""]
                  for chunk in args.blocks.split("|")]
        scheme = cond.PartitionScheme(blocks, mode or "partial")
    elif getattr(args, "partition", None):
        sizes = [int(s) for s in args.partition.split(",") if s != ""]
        scheme = cond.PartitionScheme.from_sizes(sizes, mode or "partial")
    else:
        hint = sys_.hints.get("partition")
        if hint is None:
            if required:
                raise SchemaError("no partition given and the model has no hint")
            return None
        scheme = cond.PartitionScheme.from_hint(hint, mode)
    scheme.validate_for(sys_.n)
    return scheme


def _config_dict(args, extra=None):
    skip = {"func", "out", "verbose", "workers"}
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in skip and v is not None}
    if extra:
        cfg.update(extra)
    return cfg


def _run_dir(args, config):
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    path = os.path.join(args.out, digest)
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _report_payload(config, report_dict, t0):
    return {"config": config, "report": report_dict,
            "timing": {"seconds": time.time() - t0}}


def _emit(args, path, payload):
    _write_json(path, payload)
    if args.verbose:
        print(json.dumps(payload.get("report", payload), sort_keys=True, indent=1))
    print(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args):
    t0 = time.time()
    sys_, _ = _resolve_model(args)
    scheme = _partition(args, sys_)
    config = _config_dict(args, {"resolvedBlocks": scheme.blocks,
                                 "resolvedMode": scheme.mode})
    run_dir = _run_dir(args, config)
    csv_path = os.path.join(run_dir, "residuals.csv") if args.csv else None
    report = cond.check_partition(sys_, scheme, _plan(args), tol=args.tol,
                                  frame=args.frame,
                                  gradient_path=args.gradient_path, csv_path=csv_path)
    payload = _report_payload(config, report.to_dict(), t0)
    payload["timing"]["samples"] = {"degenerateByCause": report.degenerate_by_cause}
    _emit(args, os.path.join(run_dir, "report.json"), payload)
    return 0 if report.verdict == "pass" else 1


def cmd_search(args):
    t0 = time.time()
    sys_, _ = _resolve_model(args)
    config = _config_dict(args)
    run_dir = _run_dir(args, config)
    work = {}
    found = cond.search_partitions(sys_, _plan(args), tol=args.tol,
                                   max_k=args.max_k, mode=args.mode,
                                   frame=args.frame, work=work)
    payload = _report_payload(config, {
        "passing": [{"blocks": s.blocks, "mode": s.mode, "report": r.to_dict()}
                    for s, r in found],
        "count": len(found),
    }, t0)
    payload["timing"]["search"] = work
    _emit(args, os.path.join(run_dir, "report.json"), payload)
    return 0 if found else 1


def cmd_verify(args):
    t0 = time.time()
    sys_, doc = _resolve_model(args)
    scheme = _partition(args, sys_, required=False)
    if args.transform:
        if scheme is None:
            raise SchemaError("--transform requires a partition")
        inverse = args.inverse.split(";") if args.inverse else None
        candidate = transform.TransformCandidate.from_strings(
            args.transform.split(";"), scheme, sys_.states, sys_.parameters,
            inverse=inverse)
    else:
        candidate = transform.TransformCandidate.from_hints(sys_, mode=args.mode)
        if scheme is not None:
            candidate.partition = scheme
    config = _config_dict(args, {"resolvedBlocks": candidate.partition.blocks,
                                 "resolvedMode": candidate.partition.mode})
    run_dir = _run_dir(args, config)
    ts = transform.verify_transform(sys_, candidate, _plan(args), tol=args.tol,
                                    frame=args.frame)
    payload = _report_payload(config, ts.to_dict(), t0)
    payload["timing"]["samples"] = {"degenerateByCause": ts.degenerate_by_cause}
    _emit(args, os.path.join(run_dir, "report.json"), payload)
    return 0 if ts.verdict == "pass" else 1


def cmd_decouple(args):
    t0 = time.time()
    sys_, _ = _resolve_model(args)
    scheme = _partition(args, sys_)
    base = np.array([float(s) for s in args.base_point.split(",")])
    counts = [int(s) for s in args.grid.split(",")]
    if len(counts) == 1:
        counts = counts * sys_.n
    if len(counts) != sys_.n or len(base) != sys_.n:
        raise SchemaError("base point and grid must match the state dimension")
    config = _config_dict(args, {"resolvedBlocks": scheme.blocks,
                                 "resolvedMode": scheme.mode})
    run_dir = _run_dir(args, config)
    report = cond.check_partition(sys_, scheme, _plan(args), tol=args.tol,
                                  frame=args.frame)
    out = transform.construct_transform_numeric(sys_, scheme, base, counts,
                                                frame=args.frame, report=report)
    mesh = np.meshgrid(*out["axes"], indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=1)
    _write_csv(os.path.join(run_dir, "transform_grid.csv"),
               list(sys_.states) + [f"H{i+1}" for i in range(sys_.n)],
               [((), np.hstack([coords, out["values"].reshape(-1, sys_.n)]))])
    payload = _report_payload(config, {
        "quality": out["quality"],
        "basePoint": out["basePoint"],
        "blocks": out["blocks"],
        "gridShape": list(out["gridShape"]),
        "partitionReport": report.to_dict(),
    }, t0)
    payload["timing"]["construct"] = out["work"]
    _emit(args, os.path.join(run_dir, "report.json"), payload)
    quality = out["quality"]
    ok = (report.verdict == "pass" and quality["gridCellsChecked"] > 0
          and quality["gridAnnihilationMax"] <= GRID_ANNIHILATION_TOL)
    return 0 if ok else 1


def cmd_simulate(args):
    t0 = time.time()
    sys_, doc = _resolve_model(args)
    texts = args.initial.split(";")
    if len(texts) != sys_.n:
        raise SchemaError(f"expected {sys_.n} initial components")
    initial = [ex.parse(s, {"x", "pi"} | set(sys_.parameters)) for s in texts]
    config = _config_dict(args)
    run_dir = _run_dir(args, config)
    coupled = hypsolve.solve_coupled(sys_, initial, args.cells, args.t_end,
                                     scheme=args.scheme, cfl=args.cfl,
                                     boundary=args.boundary)
    _solution_csv(os.path.join(run_dir, "solution_coupled.csv"), sys_.states, coupled)
    report = {"coupled": hypsolve.solution_meta(coupled)}
    solve = {"coupled": coupled.work}

    if doc and "decoupledHint" in doc and "transform" in sys_.hints:
        dec = models.decoupled_system(doc)
        at_initial = dict(zip(sys_.states, initial))
        U0 = [ex.substitute(h, at_initial) for h in sys_.hints["transform"]]
        sizes = [len(b) for b in dec.hints["partition"]["blocks"]] \
            if "partition" in dec.hints else [dec.n]
        hier = hypsolve.solve_hierarchical(dec, sizes, U0, args.cells, args.t_end,
                                           scheme=args.hier_scheme, cfl=args.cfl,
                                           boundary=args.boundary)
        _solution_csv(os.path.join(run_dir, "solution_hierarchical.csv"),
                      dec.states, hier)
        norms = hypsolve.compare_solutions(coupled, hier, mapping=sys_.hints["transform"],
                                           map_states=sys_.states)
        report["hierarchical"] = hypsolve.solution_meta(hier)
        report["comparison"] = norms
        solve["hierarchical"] = hier.work
    payload = _report_payload(config, report, t0)
    payload["timing"]["solve"] = solve
    _emit(args, os.path.join(run_dir, "report.json"), payload)
    return 0


def _solution_csv(path, states, sol):
    """One row per time level and cell: t, x and the states."""
    _write_csv(path, ["t", "x"] + list(states),
               (((t,), np.vstack([sol.x, U]).T) for t, U in zip(sol.times, sol.data)))


def _write_csv(path, header, tables):
    """The header, then for each (lead, table) of tables the rows of the
    float array table, each led by the floats of lead, every float as .17g:
    csv.writer's bytes (.17g needs no quoting), 128 rows per write to keep
    RSS flat."""
    fmt = "{:.17g}".format
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lead, table in tables:
            head = "".join(fmt(v) + "," for v in lead)
            for lo in range(0, len(table), 128):
                fh.writelines(head + ",".join(map(fmt, row)) + "\r\n"
                              for row in table[lo:lo + 128].tolist())


def cmd_nijenhuis(args):
    t0 = time.time()
    sys_, _ = _resolve_model(args)
    config = _config_dict(args)
    run_dir = _run_dir(args, config)
    value, used = cond.nijenhuis_max(sys_, _plan(args))
    payload = _report_payload(config, {"maxResidual": value, "samples": used,
                                       "tolerance": args.tol,
                                       "verdict": "pass" if value <= args.tol else "fail"},
                              t0)
    _emit(args, os.path.join(run_dir, "report.json"), payload)
    return 0 if value <= args.tol else 1


def cmd_oracle_gen(args):
    sizes = tuple(int(s) for s in args.blocks.split(","))
    doc = models.emit_synthetic_document(args.seed, args.n, sizes,
                                         with_source=args.with_source,
                                         off_block_defect=args.defect)
    config = {"command": "oracle-gen", "seed": args.seed, "n": args.n,
              "blocks": list(sizes), "withSource": args.with_source,
              "defect": args.defect}
    run_dir = _run_dir(args, config)
    path = os.path.join(run_dir, f"oracle_{args.seed}.json")
    _write_json(path, doc)
    print(path)
    return 0


def cmd_models(args):
    if args.action == "list":
        for name in sorted(models.REGISTRY):
            print(name)
        return 0
    if not args.name:
        raise SchemaError("models emit requires a model name")
    kw = _builder_kwargs(args, args.name)
    entry = _build(args.name, kw)
    config = {"command": "models-emit", "name": args.name, "kw": sorted(kw)}
    run_dir = _run_dir(args, config)
    path = os.path.join(run_dir, f"{args.name}.json")
    _write_json(path, entry.document)
    print(path)
    return 0


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except USAGE_ERRORS as err:
        json.dump({"error": type(err).__name__, "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except QLError as err:
        json.dump({"error": type(err).__name__, "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
