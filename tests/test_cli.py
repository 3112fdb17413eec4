import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qldecouple import cli, hypsolve
from qldecouple.errors import DomainError
from qldecouple.system import load_system


def run(argv):
    return cli.main(argv)


def read_report(capsys):
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as fh:
        return json.load(fh), path


def strip_timing(payload):
    payload = dict(payload)
    payload.pop("timing", None)
    return payload


BASE = ["--samples", "100", "--seed", "42"]


def test_check_barotropic_cubic_exit_zero(tmp_path, capsys):
    code = run(["check", "--model", "barotropic", "--param", "p0=1",
                "--pressure", "p0*rho^3", "--partition", "1,1", "--mode", "full",
                "--out", str(tmp_path)] + BASE)
    payload, path = read_report(capsys)
    assert code == 0
    assert payload["report"]["verdict"] == "pass"
    assert os.path.dirname(path).startswith(str(tmp_path))


def test_check_quadratic_pressure_fails_with_expected_residual(tmp_path, capsys):
    code = run(["check", "--model", "barotropic", "--param", "p0=1",
                "--pressure", "p0*rho^2", "--partition", "1,1", "--mode", "full",
                "--out", str(tmp_path)] + BASE)
    payload, _ = read_report(capsys)
    assert code == 1
    mx = payload["report"]["maxResidual"]
    assert 0.5 <= mx <= 1.0
    # the residual at (rho, v) = (1, 0) is sqrt(1/2) ~ 0.707; check the
    # analytic law at the recorded argmax instead of a fixed sample
    arg = payload["report"]["families"]["gradient"]["argmax"]
    assert abs(arg["residual"]) == pytest.approx(np.sqrt(arg["u"][0] / 2), rel=1e-6)


def test_check_invalid_partition_usage_error(tmp_path, capsys):
    code = run(["check", "--model", "barotropic", "--partition", "1,2",
                "--mode", "full", "--out", str(tmp_path)] + BASE)
    capsys.readouterr()
    assert code == 2


def test_check_unknown_flag_usage_error(tmp_path):
    code = run(["check", "--model", "barotropic", "--nonsense"])
    assert code == 2


def test_check_missing_model_file(tmp_path, capsys):
    code = run(["check", "--model", "/does/not/exist.json", "--partition", "1,1",
                "--out", str(tmp_path)] + BASE)
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err.strip())["error"] == "SchemaError"


def test_check_runtime_error_exit_three(tmp_path, capsys):
    # valid schema, no admissible sample: nijenhuis on an excluded-everywhere box
    code = run(["nijenhuis", "--model", "barotropic", "--pressure=-p0*rho^2",
                "--param", "p0=1", "--out", str(tmp_path)] + BASE)
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err.strip())["error"] == "DegenerateSample"


def test_check_counts_degenerate_samples_by_cause(tmp_path, capsys):
    # sqrt(a) is not finite for a < 0, so those samples have no frame
    model = tmp_path / "sqrt.json"
    model.write_text(json.dumps({"n": 2, "states": ["a", "b"],
                                 "A": [["sqrt(a)", "0"], ["b", "2 + a"]],
                                 "domain": {"a": [-0.5, 1], "b": [-1, 1]}}))
    code = run(["check", "--model", str(model), "--partition", "1,1",
                "--out", str(tmp_path)] + BASE)
    payload, _ = read_report(capsys)
    degenerate = payload["report"]["samples"]["degenerate"]
    assert code == 1 and degenerate > 0
    assert payload["timing"]["samples"]["degenerateByCause"] == {"DomainError": degenerate}



def test_verify_transform_counts_degenerate_samples_by_cause(tmp_path, capsys):
    # sqrt(a) is not finite for a < 0, so those samples have no frame
    model = tmp_path / "sqrt.json"
    model.write_text(json.dumps({"n": 2, "states": ["a", "b"],
                                 "A": [["sqrt(a)", "0"], ["b", "2 + a"]],
                                 "domain": {"a": [-0.5, 1], "b": [-1, 1]}}))
    run(["verify-transform", "--model", str(model), "--transform", "a;b",
         "--partition", "1,1", "--out", str(tmp_path)] + BASE)
    payload, _ = read_report(capsys)
    degenerate = payload["report"]["degenerate"]
    assert degenerate > 0
    assert payload["timing"]["samples"]["degenerateByCause"] == {"DomainError": degenerate}


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_negative_or_nan_separation_tolerance_usage_error(tmp_path, capsys, value):
    code = run(["check", "--model", "barotropic", "--param", "p0=1", "--partition", "1,1",
                "--sep-tol", value, "--out", str(tmp_path)] + BASE)
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "SchemaError"

def test_simulate_non_finite_coefficient_exit_three(tmp_path, capsys):
    # A = sqrt(u) is not finite where the initial data sin(2 pi x) < 0
    model = tmp_path / "sqrt.json"
    model.write_text(json.dumps({"n": 1, "states": ["u"], "A": [["sqrt(u)"]],
                                 "domain": {"u": [-2, 2]}}))
    code = run(["simulate", "--model", str(model), "--initial", "sin(2*pi*x)",
                "--out", str(tmp_path)])
    assert code == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "DomainError"


def test_overflowing_literal_is_usage_error(tmp_path, capsys):
    model = tmp_path / "overflow.json"
    model.write_text(json.dumps({"n": 2, "states": ["u", "v"],
                                 "A": [["1e400*u", "0"], ["0", "v"]],
                                 "domain": {"u": [-1, 1], "v": [-1, 1]}}))
    code = run(["check", "--model", str(model), "--partition", "1,1", "--mode", "full",
                "--out", str(tmp_path)] + BASE)
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ParseError"


def test_overflowing_constant_exponent_is_usage_error(tmp_path, capsys):
    model = tmp_path / "exponent.json"
    model.write_text(json.dumps({"n": 2, "states": ["u", "v"],
                                 "A": [["u^(10^400)", "0"], ["0", "v"]],
                                 "domain": {"u": [-1, 1], "v": [-1, 1]}}))
    code = run(["check", "--model", str(model), "--partition", "1,1",
                "--out", str(tmp_path)] + BASE)
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ParseError"


@pytest.mark.parametrize("entry", ["2^2000*u", "exp(1000)*u", "1e200*1e200*u",
                                   "1e308*10-1e308*10+u"])
def test_overflowing_folded_constant_is_usage_error(tmp_path, capsys, entry):
    # load-time folding computes 2^2000 and exp(1000) with math.pow and
    # math.exp, which raise OverflowError instead of returning inf; a
    # product of floats folds to inf and a difference of infs to nan
    model = tmp_path / "folded.json"
    model.write_text(json.dumps({"n": 2, "states": ["u", "v"],
                                 "A": [[entry, "0"], ["0", "2"]],
                                 "domain": {"u": [0.5, 1], "v": [0.5, 1]}}))
    code = run(["check", "--model", str(model), "--partition", "1,1", "--samples", "20",
                "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ParseError" and "constant out of range" in err["message"]


def test_overflowing_entry_at_one_state_is_degenerate(tmp_path, capsys):
    # (1e200*u)^2 is inf on the stack; naming the entry at one state
    # evaluates it with math.pow, whose OverflowError becomes a DomainError
    model = tmp_path / "square.json"
    model.write_text(json.dumps({"n": 2, "states": ["u", "v"],
                                 "A": [["(1e200*u)^2", "0"], ["0", "2"]],
                                 "domain": {"u": [0.5, 1], "v": [0.5, 1]}}))
    code = run(["check", "--model", str(model), "--partition", "1,1", "--samples", "20",
                "--out", str(tmp_path)])
    payload, _ = read_report(capsys)
    assert code == 1
    assert payload["report"]["samples"]["degenerate"] == 20
    assert payload["timing"]["samples"]["degenerateByCause"] == {"DomainError": 20}
    sys_ = load_system(model.read_text())
    with pytest.raises(DomainError, match=r"A\[0\]\[0\]"):
        sys_.eval_matrix(0.0, 0.0, np.array([0.75, 0.75]))


def test_simulate_nearly_scalar_upwind_cell_exit_three(tmp_path, capsys):
    # a complex pair 1 +- 1e-20 u i passes the speed check, but the real
    # parts of its eigenvectors are equal: no upwind basis exists there
    model = tmp_path / "scalar.json"
    model.write_text(json.dumps({"n": 2, "states": ["u", "v"],
                                 "A": [["1", "1e-20*u"], ["-1e-20*u", "1"]],
                                 "domain": {"u": [-1, 1], "v": [-1, 1]}}))
    code = run(["simulate", "--model", str(model), "--initial", "sin(2*pi*x);0",
                "--scheme", "upwindCharacteristic", "--out", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NonHyperbolic" and "grid cell" in err["message"]


def test_module_entry_point_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-m", "qldecouple", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: qldecouple")


def test_search_finds_riemann_pair(tmp_path, capsys):
    code = run(["search", "--model", "barotropic", "--pressure", "p0*rho^3",
                "--param", "p0=1", "--mode", "full", "--out", str(tmp_path),
                "--samples", "60", "--seed", "42"])
    payload, _ = read_report(capsys)
    assert code == 0
    assert payload["report"]["count"] == 1
    assert payload["report"]["passing"][0]["blocks"] == [[0], [1]]


def test_search_empty_exit_one(tmp_path, capsys):
    code = run(["search", "--model", "barotropic", "--pressure", "p0*rho^2",
                "--param", "p0=1", "--mode", "full", "--out", str(tmp_path),
                "--samples", "60"])
    payload, _ = read_report(capsys)
    assert code == 1
    assert payload["report"]["count"] == 0


def test_search_counts_its_work_per_candidate(tmp_path, capsys):
    # threadline: 74 candidates, of which the gradient pilot passes 5; one
    # of those passes the full check
    code = run(["search", "--model", "threadline", "--param", "k=1", "--out", str(tmp_path),
                "--samples", "40"])
    payload, _ = read_report(capsys)
    assert code == 0
    work = payload["timing"]["search"]
    assert (work["candidates"], work["pilotsPassed"], work["fullChecks"]) == (74, 5, 5)
    assert len(work["perCandidate"]) == 74
    full = [c for c in work["perCandidate"] if "full" in c]
    assert all(c["pilot"]["verdict"] == "pass" for c in full)
    assert [c["blocks"] for c in full if c["full"]["verdict"] == "pass"] == [
        p["blocks"] for p in payload["report"]["passing"]]
    assert all(c["pilot"] == {"verdict": "fail", "degenerateByCause": {}}
               for c in work["perCandidate"] if "full" not in c)


def test_verify_transform_hinted(tmp_path, capsys):
    code = run(["verify-transform", "--model", "barotropic", "--mode", "full",
                "--out", str(tmp_path)] + BASE)
    payload, _ = read_report(capsys)
    assert code == 0
    assert payload["report"]["offBlockMax"] <= 1e-9


def test_verify_transform_explicit_expressions(tmp_path, capsys):
    code = run(["verify-transform", "--model", "barotropic",
                "--transform", "v + sqrt(3)*rho;v - sqrt(3)*rho",
                "--partition", "1,1", "--mode", "full",
                "--out", str(tmp_path)] + BASE)
    payload, _ = read_report(capsys)
    assert code == 0
    assert payload["report"]["annihilationMax"] <= 1e-9


def test_nijenhuis_exit_codes(tmp_path, capsys):
    code = run(["nijenhuis", "--model", "barotropic", "--pressure", "p0*rho^3",
                "--param", "p0=1", "--tol", "1e-7", "--out", str(tmp_path)] + BASE)
    payload, _ = read_report(capsys)
    assert code == 0
    assert payload["report"]["maxResidual"] <= 1e-7
    code = run(["nijenhuis", "--model", "barotropic", "--pressure", "p0*rho^2",
                "--param", "p0=1", "--tol", "1e-7", "--out", str(tmp_path)] + BASE)
    payload, _ = read_report(capsys)
    assert code == 1
    assert payload["report"]["maxResidual"] >= 0.1


def test_simulate_writes_solutions_and_norms(tmp_path, capsys):
    code = run(["simulate", "--model", "barotropic", "--pressure", "p0*rho^3",
                "--param", "p0=1", "--initial", "1 + 0.1*sin(2*pi*x);0",
                "--cells", "100", "--t-end", "0.05", "--out", str(tmp_path),
                "--seed", "42"])
    payload, path = read_report(capsys)
    assert code == 0
    run_dir = os.path.dirname(path)
    assert os.path.exists(os.path.join(run_dir, "solution_coupled.csv"))
    assert os.path.exists(os.path.join(run_dir, "solution_hierarchical.csv"))
    comp = payload["report"]["comparison"]
    assert comp[-1]["L1total"] <= 0.05
    # spectral work sits under timing: the coupled Lax-Friedrichs solve forms
    # no pair, the decoupled (1, 1) upwind solve forms every pair in closed form
    solve = payload["timing"]["solve"]
    for side in ("coupled", "hierarchical"):
        assert solve[side]["steps"] == payload["report"][side]["meta"]["steps"]
    assert solve["coupled"]["closedFormCells"] == solve["coupled"]["eigCells"] == 0
    hier = solve["hierarchical"]
    assert hier["closedFormCells"] == 2 * 100 * hier["steps"]
    assert hier["eigvalsCells"] == hier["eigCells"] == 0


def test_decouple_runs_and_writes_grid(tmp_path, capsys):
    code = run(["decouple", "--model", "barotropic", "--pressure", "p0*rho^3",
                "--param", "p0=1", "--partition", "1,1", "--mode", "full",
                "--base-point", "1.0,0.0", "--grid", "8", "--samples", "40",
                "--out", str(tmp_path), "--seed", "42"])
    payload, path = read_report(capsys)
    assert code == 0
    run_dir = os.path.dirname(path)
    grid_file = os.path.join(run_dir, "transform_grid.csv")
    assert os.path.exists(grid_file)
    header = open(grid_file).readline().strip().split(",")
    assert header == ["rho", "v", "H1", "H2"]
    # the Riemann invariants are affine, so the grid Jacobian annihilates
    # the forbidden autovectors to rounding
    assert payload["report"]["quality"]["gridAnnihilationMax"] <= 1e-12
    assert payload["report"]["quality"]["toleranceMissed"] == 0
    assert payload["report"]["quality"]["gridCellsSkipped"] == 0
    # both levels shoot as one batch: one shot, 8 RK4 steps (11 field calls
    # each) for the 2 x 64 grid rows
    work = payload["timing"]["construct"]
    assert sorted(work) == ["fieldCalls", "fieldEvaluations", "shots", "steps"]
    assert work["shots"] == 1
    assert (work["steps"], work["fieldEvaluations"]) == (8 * 128, 11 * 8 * 128)
    assert work["fieldCalls"] == 11 * 8


@pytest.mark.parametrize("frame, sign", [("auto", 1.0), ("numeric", -1.0)])
def test_decouple_names_the_eigenvalue_of_each_map_column(tmp_path, capsys, frame, sign):
    # hinted frames follow the hint (slot 0 is v + sqrt(3) rho), numeric
    # frames ascend; at the base (1, 0) the slot eigenvalues are +-sqrt(3),
    # and H1 is a monotone function of the Riemann invariant v + s sqrt(3) rho
    # with s the sign of the first one
    code = run(["decouple", "--model", "barotropic", "--pressure", "p0*rho^3",
                "--param", "p0=1", "--partition", "1,1", "--mode", "full",
                "--base-point", "1.0,0.0", "--grid", "5", "--frame", frame,
                "--out", str(tmp_path)] + BASE)
    payload, path = read_report(capsys)
    assert code == 0
    s3 = np.sqrt(3.0)
    assert payload["report"]["slotEigenvalues"] == pytest.approx([sign * s3, -sign * s3],
                                                                  abs=1e-12)
    grid = np.loadtxt(os.path.join(os.path.dirname(path), "transform_grid.csv"),
                      delimiter=",", skiprows=1)
    invariant = grid[:, 1] + sign * s3 * grid[:, 0]
    h1 = grid[np.argsort(invariant, kind="stable"), 2]
    steps = np.diff(h1)[np.diff(np.sort(invariant)) > 1e-9]
    assert (steps > 0).all() or (steps < 0).all()


def test_decouple_lands_threadline_levels_in_one_shot(tmp_path, capsys):
    # each threadline 2,2 level flows along two slots; one leg along their
    # combination lands both slice offsets at once, where legs along one
    # slot after the other took 35 shots
    code = run(["decouple", "--model", "threadline", "--param", "k=1", "--partition", "2,2",
                "--base-point", "1.0,0.1,0.2,0.1", "--grid", "3", "--out", str(tmp_path)])
    payload, _ = read_report(capsys)
    assert code == 0
    assert payload["timing"]["construct"]["shots"] == 1


@pytest.mark.parametrize("frame", ["auto", "numeric"])
def test_decouple_passes_a_sound_oracle_on_a_coarse_grid(tmp_path, capsys, frame):
    # the seed-5 oracle decouples by construction as 1,1,1; its constructed
    # map is curved between the states of a 5-point grid, and that
    # interpolation error is no failure to decouple
    assert run(["oracle-gen", "--n", "3", "--blocks", "1,1,1", "--seed", "5",
                "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    code = run(["decouple", "--model", path, "--partition", "1,1,1", "--base-point", "0,0,0",
                "--grid", "5", "--frame", frame, "--out", str(tmp_path)])
    payload, _ = read_report(capsys)
    assert payload["report"]["partitionReport"]["verdict"] == "pass"
    # 1.2e-6 with either frame
    assert payload["report"]["quality"]["gridAnnihilationMax"] <= 1e-5
    assert code == 0
    # late shots move rows by arcs of 1e-11 to 1e-8, whose budget the
    # estimate's roundoff would exceed at every refinement without
    # transform.ARC_FLOOR: 528 field calls with it, 11,616 without
    assert payload["report"]["quality"]["toleranceMissed"] == 0
    assert payload["timing"]["construct"]["fieldCalls"] <= 1000


DECOUPLE_1_1 = ["--partition", "1,1", "--mode", "full", "--base-point", "1.0,0.0",
                "--samples", "40"]


@pytest.mark.parametrize("annihilation, expected", [(1e-5, 0), (1e-3, 1)])
def test_decouple_exit_follows_the_grid_gate(tmp_path, capsys, monkeypatch,
                                             annihilation, expected):
    # a passing verdict with the map's annihilation set on either side of
    # the 1e-4 gate: the gate alone decides the exit code
    construct = cli.transform.construct_transform_numeric

    def construct_with(*args, **kwargs):
        out = construct(*args, **kwargs)
        out["quality"]["gridAnnihilationMax"] = annihilation
        return out

    monkeypatch.setattr(cli.transform, "construct_transform_numeric", construct_with)
    code = run(["decouple", "--model", "barotropic", "--pressure", "p0*rho^3",
                "--param", "p0=1", "--grid", "4", "--out", str(tmp_path)] + DECOUPLE_1_1)
    payload, _ = read_report(capsys)
    assert payload["report"]["partitionReport"]["verdict"] == "pass"
    assert payload["report"]["quality"]["gridAnnihilationMax"] == annihilation
    assert code == expected


@pytest.mark.parametrize("grid, checked, expected", [(3, 0, 1), (4, 4, 0)])
def test_decouple_fails_when_no_interior_state_is_checked(tmp_path, capsys, grid, checked,
                                                          expected):
    # a hole excluded around (rho, v) = (1.25, 0), the center of a 3-point
    # grid and its only interior state: nothing is left to check the gate
    # at, so the run fails; a 4-point grid has no state in the hole
    assert run(["models", "emit", "barotropic", "--param", "p0=1", "--out", str(tmp_path)]) == 0
    doc = json.load(open(capsys.readouterr().out.strip()))
    doc["exclude"].append("0.01 - (rho - 1.25)^2 - v^2")
    path = tmp_path / "holed.json"
    path.write_text(json.dumps(doc))
    code = run(["decouple", "--model", str(path), "--grid", str(grid),
                "--out", str(tmp_path)] + DECOUPLE_1_1)
    payload, _ = read_report(capsys)
    quality = payload["report"]["quality"]
    assert payload["report"]["partitionReport"]["verdict"] == "pass"
    assert quality["gridCellsChecked"] == checked
    assert quality["gridAnnihilationMax"] <= 1e-12
    assert code == expected


def test_models_list_and_emit(tmp_path, capsys):
    assert run(["models", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert names == ["barotropic", "isentropic", "threadline"]
    assert run(["models", "emit", "threadline", "--param", "k=1",
                "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    doc = json.load(open(path))
    assert doc["n"] == 4


@pytest.mark.parametrize("extra", [[], ["--with-source"]], ids=["homogeneous", "sourced"])
def test_oracle_gen_emits_loadable_model(tmp_path, capsys, extra):
    assert run(["oracle-gen", "--seed", "3", "--n", "3", "--blocks", "2,1",
                "--out", str(tmp_path), *extra]) == 0
    path = capsys.readouterr().out.strip()
    code = run(["check", "--model", path, "--out", str(tmp_path),
                "--samples", "40", "--seed", "7", "--frame", "numeric"])
    payload, _ = read_report(capsys)
    assert code == 0
    assert payload["report"]["verdict"] == "pass"


def test_reproducibility_across_worker_counts(tmp_path, capsys):
    argv = ["check", "--model", "barotropic", "--pressure", "p0*rho^2",
            "--param", "p0=1", "--partition", "1,1", "--mode", "full",
            "--samples", "60", "--seed", "42"]
    run(argv + ["--out", str(tmp_path / "a"), "--workers", "1"])
    p1, path1 = read_report(capsys)
    run(argv + ["--out", str(tmp_path / "b"), "--workers", "2"])
    p2, path2 = read_report(capsys)
    b1 = json.dumps(strip_timing(p1), sort_keys=True)
    b2 = json.dumps(strip_timing(p2), sort_keys=True)
    assert b1 == b2
    # identical config lands in the same hashed run directory name
    assert os.path.basename(os.path.dirname(path1)) == \
        os.path.basename(os.path.dirname(path2))


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


@pytest.mark.parametrize("name,argv", [
    ("barotropic_full", ["check", "--model", "barotropic", "--param", "p0=1",
                         "--pressure", "p0*rho^3", "--partition", "1,1",
                         "--mode", "full", "--samples", "100", "--seed", "42"]),
    ("isentropic_partial", ["check", "--model", "isentropic", "--param", "p0=1",
                            "--partition", "1,1,1", "--mode", "partial",
                            "--samples", "100", "--seed", "42"]),
    ("threadline_partial", ["check", "--model", "threadline", "--param", "k=1",
                            "--samples", "100", "--seed", "42"]),
])
def test_golden_reports(tmp_path, capsys, name, argv):
    run(argv + ["--out", str(tmp_path)])
    payload, _ = read_report(capsys)
    got = json.dumps(strip_timing(payload), sort_keys=True, indent=1) + "\n"
    golden_path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if not os.path.exists(golden_path):  # pragma: no cover - regeneration path
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(golden_path, "w") as fh:
            fh.write(got)
    want = open(golden_path).read()
    assert got == want


def test_simulate_threadline_identity_hierarchy(tmp_path, capsys):
    code = run(["simulate", "--model", "threadline", "--param", "k=1",
                "--initial",
                "1 + 0.05*sin(2*pi*x);0.1*cos(2*pi*x);0.05*sin(2*pi*x);0.02*cos(2*pi*x)",
                "--cells", "100", "--t-end", "0.05", "--out", str(tmp_path),
                "--seed", "42"])
    payload, _ = read_report(capsys)
    assert code == 0
    assert "hierarchical" in payload["report"]
    assert payload["report"]["comparison"][-1]["L1total"] <= 0.1


THREADLINE_SIMULATE = ["simulate", "--model", "threadline", "--param", "k=1", "--initial",
                       "1 + 0.05*sin(2*pi*x);0.1*cos(2*pi*x);0.05*sin(2*pi*x);0.02*cos(2*pi*x)",
                       "--t-end", "0.05", "--seed", "42"]


def test_simulate_threadline_speeds_come_from_the_diagonal_blocks(tmp_path, capsys):
    # both threadline systems are block diagonal as (2, 2): each step sends
    # at most the near-largest cells of each 2x2 block to eigvals
    code = run(THREADLINE_SIMULATE + ["--cells", "100", "--out", str(tmp_path)])
    payload, _ = read_report(capsys)
    assert code == 0
    for work in payload["timing"]["solve"].values():
        assert 0 < work["eigvalsCells"] <= 4 * work["steps"]


@pytest.mark.parametrize("cells", ["1", "0", "-3"])
def test_simulate_degenerate_grid_is_usage_error(tmp_path, capsys, cells):
    code = run(THREADLINE_SIMULATE + ["--cells", cells, "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "SchemaError"


def csv_writer_solution(path, states, sol):
    """The reference writer: one csv.writer row per cell and time level."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x"] + list(states))
        for level, t in enumerate(sol.times):
            for i, xi in enumerate(sol.x):
                w.writerow([f"{t:.17g}", f"{xi:.17g}"]
                           + [f"{v:.17g}" for v in sol.data[level][:, i]])


@pytest.mark.parametrize("states", [["u"], ["U1", "U2", "U3", "U4"]])
def test_solution_csv_writes_the_csv_writer_bytes(tmp_path, states):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 1 / 3]
    rng = np.random.default_rng(len(states))
    x = np.linspace(-0.05, 1.05, 300)      # more cells than one write takes
    data = [rng.choice(special, (len(states), len(x))), rng.normal(size=(len(states), len(x)))]
    sol = hypsolve.GridSolution(x=x, times=[0.0, 0.1 + 1e-17], data=data,
                                scheme="laxFriedrichs", cfl=0.9, boundary="periodic")
    cli._solution_csv(tmp_path / "got.csv", states, sol)
    csv_writer_solution(tmp_path / "want.csv", states, sol)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_transform_grid_csv_writes_the_csv_writer_bytes(tmp_path):
    # the grid states then the map values, as cmd_decouple writes them
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 1 / 3]
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(300, 3))     # more rows than one write takes
    values = np.vstack([rng.choice(special, (150, 3)), rng.normal(size=(150, 3))])
    header = ["a", "b", "c", "H1", "H2", "H3"]
    cli._write_csv(tmp_path / "got.csv", header, [((), np.hstack([coords, values]))])
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for crow, vrow in zip(coords, values):
            w.writerow([f"{v:.17g}" for v in crow] + [f"{v:.17g}" for v in vrow])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_wrong_builder_option_is_usage_error(tmp_path, capsys):
    code = run(["check", "--model", "isentropic", "--pressure", "p0*rho^3",
                "--partition", "1,1,1", "--out", str(tmp_path)] + BASE)
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err.strip())["error"] == "SchemaError"
