"""Acceptance criteria, one test per numbered criterion (split where a
criterion has independent clauses).  Each test prints a single verdict line.

Criterion 3a checks that the partial-mode checker rejects the 1,1,1
hierarchy of the bundled isentropic fixture (p = p0 rho^3 s^2 + f(s)), and
that it rejects it for the right reason.  Along the entropy eigenvector
r3 = (p_s, 0, -p_rho) the acoustic speeds change at the rate

    grad(lambda_1) . r3 = (p_rr p_s - p_rs p_r) / (2 sqrt(p_r))
                        = sqrt(3) s (1 - rho^3 s)     (p0 = 1, f(s) = s),

and grad(lambda_2) . r3 is its negative, so the gradient condition holds
only on the surface rho^3 s = 1.  The same fact shows up in the transformed
matrix as the off-block entries T13 = T23 = -(p0 rho^2 s - f'(s)/rho).  Both
closed forms are derived and checked in test_conditions.py
(test_isentropic_gradient_residual_hand_formula) and test_transform.py
(test_verify_isentropic_t33_and_off_block_facts).
"""

import json
import math
import time

import numpy as np

from qldecouple import cli, hypsolve, models, transform
from qldecouple import conditions as cond
from qldecouple import eigen
from qldecouple import exprlang as ex
from qldecouple.system import SamplePlan

S3 = math.sqrt(3.0)


def _verdict(label, ok, detail=""):
    print(f"[acceptance {label}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def _run_cli(tmp_path, argv, sub="r"):
    out = tmp_path / sub
    code = cli.main(argv + ["--out", str(out)])
    reports = sorted(out.glob("*/report.json"))
    payload = json.loads(reports[-1].read_text()) if reports else None
    return code, payload


# -- criterion 1: barotropic cubic-law reproduction ---------------------------

def test_criterion_1_barotropic_reproduction(tmp_path):
    t0 = time.monotonic()
    base = ["check", "--model", "barotropic", "--param", "p0=1",
            "--pressure", "p0*rho^3", "--partition", "1,1", "--mode", "full",
            "--samples", "1000", "--seed", "42"]
    code_a, pay_a = _run_cli(tmp_path, base, "analytic")
    code_f, pay_f = _run_cli(tmp_path, base + ["--gradient-path", "fd"], "fd")
    max_a = pay_a["report"]["maxResidual"]
    max_f = pay_f["report"]["maxResidual"]

    sys_ = models.build_barotropic("p0*rho^3").system
    candidate = transform.TransformCandidate.from_hints(sys_, mode="full")
    ts = transform.verify_transform(sys_, candidate,
                                    SamplePlan(count=1000, seed=42), tol=1e-9)
    diag_err = max(float(np.max(np.abs(T[(0, 1), (0, 1)] - U)))
                   for T, U in zip(ts.t_matrices, ts.u_values))
    elapsed = time.monotonic() - t0
    ok = (code_a == 0 and max_a <= 1e-7
          and code_f == 0 and max_f <= 1e-5
          and ts.off_block_max <= 1e-9 and diag_err <= 1e-9
          and elapsed < 10.0)
    assert _verdict("1", ok,
                    f"analytic {max_a:.2e}, fd {max_f:.2e}, offdiag "
                    f"{ts.off_block_max:.2e}, diag {diag_err:.2e}, {elapsed:.1f}s")


# -- criterion 2: quadratic-law negative control -------------------------------

def test_criterion_2_negative_control(tmp_path):
    code, payload = _run_cli(tmp_path, [
        "check", "--model", "barotropic", "--param", "p0=1",
        "--pressure", "p0*rho^2", "--partition", "1,1", "--mode", "full",
        "--samples", "1000", "--seed", "42"])
    mx = payload["report"]["families"]["gradient"]["maxAbs"]
    code_s, pay_s = _run_cli(tmp_path, [
        "search", "--model", "barotropic", "--param", "p0=1",
        "--pressure", "p0*rho^2", "--mode", "full", "--samples", "100",
        "--seed", "42"], "search")
    ok = (code == 1 and payload["report"]["verdict"] == "fail"
          and 0.5 <= mx <= 1.0
          and code_s == 1 and pay_s["report"]["count"] == 0)
    assert _verdict("2", ok, f"max gradient residual {mx:.4f}, search empty")


# -- criterion 3: isentropic fixture -------------------------------------------

def test_criterion_3a_isentropic_partial_passes():
    # "passes" names the criterion: the checker must reject the 1,1,1
    # hierarchy, and the rejection must come from the entropy-wave gradient
    # tuples alone, with the closed-form residual of the module docstring
    sys_ = models.build_isentropic("s").system
    p = cond.PartitionScheme([[0], [1], [2]], "partial")
    report = cond.check_partition(sys_, p, SamplePlan(count=300, seed=42), tol=1e-6)
    grad = report.families["gradient"]
    per_tuple = {k: v[0] for k, v in grad.per_tuple.items()}
    # the acoustic pair is compatible under the rho^3 law
    acoustic = per_tuple.get("1,1->2,1", math.inf)
    entropy = min(per_tuple.get("1,1->3,1", 0.0), per_tuple.get("2,1->3,1", 0.0))
    # grad(lambda_1) . r3 has the sign of the closed form, grad(lambda_2) . r3
    # the opposite one
    arg = grad.argmax
    sign = {"1,1->3,1": 1.0, "2,1->3,1": -1.0}.get(arg["tuple"], math.nan)
    rho, _, s = arg["u"]
    want = sign * S3 * s * (1.0 - rho**3 * s)
    arg_err = abs(arg["residual"] - want) / abs(want)
    passing = cond.search_partitions(sys_, SamplePlan(count=100, seed=42),
                                     mode="partial")
    ok = (report.verdict == "fail"
          and report.evaluated == report.total_samples == 300
          and report.excluded == report.degenerate == 0
          and acoustic <= 1e-12 and entropy >= 1e-1
          and arg_err <= 1e-8 and not passing)
    assert _verdict("3a", ok,
                    f"partial verdict {report.verdict} on "
                    f"{report.evaluated}/{report.total_samples} samples, "
                    f"acoustic {acoustic:.1e}, entropy {entropy:.3e}, argmax "
                    f"{arg['residual']:.5f} vs closed form rel {arg_err:.1e}, "
                    f"{len(passing)} passing partitions")


def test_criterion_3b_isentropic_full_fails():
    sys_ = models.build_isentropic("s").system
    p = cond.PartitionScheme([[0], [1], [2]], "full")
    report = cond.check_partition(sys_, p, SamplePlan(count=300, seed=42), tol=1e-6)
    ok = report.verdict == "fail" and report.max_residual >= 1e-2
    assert _verdict("3b", ok, f"full-mode max residual {report.max_residual:.3e}")


def test_criterion_3c_isentropic_t33():
    sys_ = models.build_isentropic("s").system
    candidate = transform.TransformCandidate.from_hints(sys_, mode="partial")
    ts = transform.verify_transform(sys_, candidate, SamplePlan(count=300, seed=42))
    worst = max(abs(float(T[2, 2] - 0.5 * (U[0] + U[1])))
                for T, U in zip(ts.t_matrices, ts.u_values))
    ok = worst <= 1e-8
    assert _verdict("3c", ok, f"|T33 - (U1+U2)/2| <= {worst:.2e}")


# -- criterion 4: threadline reproduction --------------------------------------

def test_criterion_4_threadline(tmp_path):
    sys_ = models.build_threadline(k=1.0).system
    plan = SamplePlan(count=300, seed=42)
    # spectrum: exactly two clusters of multiplicity 2 at every sample
    cluster_ok = True
    for row in sys_.sample_points(SamplePlan(count=50, seed=42)):
        sp = eigen.spectrum_at(sys_, row[0], row[1], row[2:])
        if sp.signature(0) != ((2, False), (2, False)):
            cluster_ok = False
            break
    p = cond.PartitionScheme([[0, 1], [2, 3]], "partial")
    report = cond.check_partition(sys_, p, plan, tol=1e-6)
    # complete exceptionality: decay coefficients vanish for every wave and
    # across the slots sharing one characteristic speed
    machine = cond.FrameMachine(sys_)
    decay = 0.0
    same_speed = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)]
    for row in sys_.sample_points(SamplePlan(count=100, seed=42)):
        base = machine.base(row[0], row[1], row[2:])
        for a, b in same_speed:
            decay = max(decay, abs(cond.gradient_condition_residual(
                sys_, a, b, row[0], row[1], row[2:], machine=machine, base=base)))
    ok = (cluster_ok and report.verdict == "pass"
          and report.max_residual <= 1e-6 and decay <= 1e-6)
    assert _verdict("4", ok,
                    f"clusters 2x2 {cluster_ok}, partial max "
                    f"{report.max_residual:.2e}, decay max {decay:.2e}")


# -- criterion 5: oracle soundness and completeness -----------------------------

def test_criterion_5_oracle_soundness_completeness():
    t0 = time.monotonic()
    plan = SamplePlan(count=60, seed=42)
    sound = 0
    for seed in range(20):
        n = 3 + (seed % 2)
        k = 2 + ((seed // 2) % 2)
        sizes = {(3, 2): (2, 1), (3, 3): (1, 1, 1),
                 (4, 2): (2, 2), (4, 3): (1, 1, 2)}[(n, k)]
        _, _, entry = models.build_synthetic_triangular(
            seed=seed, n=n, block_sizes=sizes, with_source=(seed % 2 == 0))
        p = cond.PartitionScheme(entry.extras["blocks"], "partial")
        report = cond.check_partition(entry.system, p, plan, tol=1e-6)
        if report.verdict == "pass":
            sound += 1
    detected = 0
    for seed in range(20):
        n = 3 + (seed % 2)
        k = 2 + ((seed // 2) % 2)
        sizes = {(3, 2): (2, 1), (3, 3): (1, 1, 1),
                 (4, 2): (2, 2), (4, 3): (1, 1, 2)}[(n, k)]
        _, _, entry = models.build_synthetic_triangular(
            seed=seed, n=n, block_sizes=sizes, with_source=(seed % 2 == 0),
            off_block_defect=0.1)
        p = cond.PartitionScheme(entry.extras["blocks"], "partial")
        report = cond.check_partition(entry.system, p, plan, tol=1e-6)
        if report.verdict == "fail" and report.max_residual >= 1e-3:
            detected += 1
    elapsed = time.monotonic() - t0
    ok = sound == 20 and detected >= 19 and elapsed < 60.0
    assert _verdict("5", ok, f"sound {sound}/20, detected {detected}/20, "
                             f"{elapsed:.1f}s")


# -- criterion 6: Nijenhuis consistency -----------------------------------------

def test_criterion_6_nijenhuis():
    plan = SamplePlan(count=200, seed=42)
    cubic = models.build_barotropic("p0*rho^3").system
    mx3, _ = cond.nijenhuis_max(cubic, plan)
    quad = models.build_barotropic("p0*rho^2").system
    mx2, _ = cond.nijenhuis_max(quad, plan)
    ok = mx3 <= 1e-7 and mx2 >= 0.1
    assert _verdict("6", ok, f"gamma=3: {mx3:.2e}, gamma=2: {mx2:.3f}")


# -- criterion 7: simulation equivalence ------------------------------------------

def test_criterion_7_simulation_equivalence():
    t0 = time.monotonic()
    entry = models.build_barotropic("p0*rho^3")
    sys_ = entry.system
    dec = models.decoupled_system(entry.document)
    H = entry.document["transformHint"]
    initial = ["1 + 0.1*sin(2*pi*x)", "0"]
    initial_U = ["sqrt(3)*(1 + 0.1*sin(2*pi*x))", "-sqrt(3)*(1 + 0.1*sin(2*pi*x))"]
    t_end = 0.1
    errs = []
    linf_ok = True
    amp = 0.1
    du0_max = S3 * amp * 2 * np.pi
    for N in (200, 400, 800):
        a = hypsolve.solve_coupled(sys_, initial, N, t_end, scheme="laxFriedrichs")
        b = hypsolve.solve_hierarchical(dec, (1, 1), initial_U, N, t_end,
                                        scheme="upwindCharacteristic")
        norms = hypsolve.compare_solutions(a, b, mapping=H,
                                           map_states=sys_.states,
                                           parameters=sys_.parameters)
        errs.append(norms[-1]["L1total"])
        for comp, sgn in ((0, 1.0), (1, -1.0)):
            u0 = lambda xv, s=sgn: s * S3 * (1.0 + amp * np.sin(2 * np.pi * xv))
            exact = hypsolve.burgers_exact(u0, b.x, t_end, length=1.0)
            err = float(np.max(np.abs(b.data[-1][comp] - exact)))
            if err > 5.0 * (1.0 / N) * du0_max:
                linf_ok = False
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    elapsed = time.monotonic() - t0
    ok = all(1.5 <= r <= 3.0 for r in ratios) and linf_ok and elapsed < 60.0
    assert _verdict("7", ok, f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}, "
                             f"Linf gate {linf_ok}, {elapsed:.1f}s")


# -- criterion 8: derivative kernels ----------------------------------------------

def test_criterion_8_derivative_kernels():
    # symbolic diff vs central FD on random expressions
    from test_exprlang import _safe_case

    rng = np.random.default_rng(1234)
    h = 1e-6
    diff_ok = True
    for _ in range(100):
        e, d, bind = _safe_case(rng, need_fd=True)
        bp, bm = dict(bind), dict(bind)
        bp["x"] += h
        bm["x"] -= h
        fd = (ex.evaluate(e, bp) - ex.evaluate(e, bm)) / (2 * h)
        dv = ex.evaluate(d, bind)
        if abs(dv - fd) > 1e-6 * (1.0 + abs(dv)):
            diff_ok = False
    # perturbation formula vs FD eigenvalue directional derivative
    sys_ = models.build_barotropic("p0*rho^3").system
    rng = np.random.default_rng(7)
    eig_ok = True
    worst = 0.0
    for _ in range(50):
        u = np.array([rng.uniform(0.6, 1.9), rng.uniform(-0.9, 0.9)])
        w = rng.normal(size=2)
        base = eigen.spectrum_at(sys_, 0, 0, u)
        for slot in range(2):
            pred = eigen.eigenvalue_directional_derivative(sys_, 0, 0, u, base, slot, w)
            hs = 1e-6 * (1 + np.linalg.norm(u))
            fp = eigen.align_frames(base, eigen.spectrum_at(sys_, 0, 0, u + hs * w))
            fm = eigen.align_frames(base, eigen.spectrum_at(sys_, 0, 0, u - hs * w))
            fd = (fp.values[0, slot].real - fm.values[0, slot].real) / (2 * hs)
            worst = max(worst, abs(pred - fd))
            if abs(pred - fd) > 1e-5 * (1.0 + abs(pred)):
                eig_ok = False
    ok = diff_ok and eig_ok
    assert _verdict("8", ok, f"diff-vs-FD ok {diff_ok}, eig worst {worst:.2e}")


# -- criterion 9: reproducibility ---------------------------------------------------

def test_criterion_9_reproducibility(tmp_path):
    argv = ["check", "--model", "barotropic", "--param", "p0=1",
            "--pressure", "p0*rho^3", "--partition", "1,1", "--mode", "full",
            "--samples", "120", "--seed", "42"]
    payloads = []
    for sub, workers in (("a", "1"), ("b", "2"), ("c", "1")):
        _, payload = _run_cli(tmp_path, argv + ["--workers", workers], sub)
        payload.pop("timing", None)
        payloads.append(json.dumps(payload, sort_keys=True))
    ok = payloads[0] == payloads[1] == payloads[2]
    assert _verdict("9", ok, "byte-identical reports across reruns and worker counts")
