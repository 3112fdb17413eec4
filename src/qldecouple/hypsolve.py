"""Desk-scale 1D finite-volume harness demonstrating decoupling.

Solves the coupled system and, separately, a block-triangular system in
hierarchy order (each block reads the already-updated lower blocks frozen at
the matching time level), so the two solutions can be compared through the
decoupling map.  First-order schemes only: Lax-Friedrichs and characteristic
upwinding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exprlang as ex
from .errors import (
    BlowupDetected,
    CFLViolation,
    DomainError,
    GridMismatch,
    NonHyperbolic,
    SchemaError,
)
from .system import QuasilinearSystem, SamplePlan

SCHEMES = ("laxFriedrichs", "upwindCharacteristic")
BLOWUP_FACTOR = 1e6
# sampled states at which a hierarchical solve checks the block triangularity
TRIANGULAR_PROBES = 16
# A 2x2 cell is safely real when, with its entries divided by their largest
# magnitude s, the quarter discriminant ((a-d)/2)^2 + bc exceeds SAFE_DISC.
# Its eigenvalues then lie 2 sqrt(SAFE_DISC) apart, so their condition number
# sqrt(1 + |n|^2 / (l1-l2)^2), n the Schur off-diagonal with |n| <= 2, is at
# most 1/sqrt(SAFE_DISC) + 1 ~ 100, and the larger |lambda| is at least
# sqrt(SAFE_DISC).  LAPACK (backward error c eps |A/s|, c ~ 10) and the
# closed form then both lie within about 2e4 c eps ~ 5e-11 of the exact
# max |lambda|, relative to it.
SAFE_DISC = 1e-4
# A safely real cell whose closed-form max |lambda| lies within this relative
# margin of the stack's largest estimate may hold LAPACK's largest speed.  The
# cell holding it lies within about twice the two errors above (~2e-10) of
# the largest estimate, well inside the margin.
SPEED_MARGIN = 1e-9


@dataclass
class GridSolution:
    x: np.ndarray
    times: list
    data: list                  # per time level: array (n, N)
    scheme: str
    cfl: float
    boundary: str
    meta: dict = field(default_factory=dict)
    # spectral work: steps, cells whose upwind pairs came in closed form, and
    # matrices sent to eigvals and to eig
    work: dict = field(default_factory=dict)

    @property
    def n_cells(self):
        return len(self.x)


def _grid(sys_, n_cells):
    lo, hi = sys_.domain["x"]
    dx = (hi - lo) / n_cells
    x = lo + (np.arange(n_cells) + 0.5) * dx
    return x, dx


def _initial_values(sys_, initial, x):
    if isinstance(initial, np.ndarray):
        if initial.shape != (sys_.n, len(x)):
            raise SchemaError("initial data array has the wrong shape")
        return initial.astype(float).copy()
    if len(initial) != sys_.n:
        raise SchemaError(f"expected {sys_.n} initial components")
    symbols = {"x", "pi"} | set(sys_.parameters)
    binding = {"pi": np.pi, **sys_.parameters}
    exprs = [text if isinstance(text, ex.Expr) else ex.parse(str(text), symbols)
             for text in initial]
    fn = ex.compile_expression([ex.substitute(e, binding) for e in exprs], ["x"])
    return np.array(fn(x))


def _shift(U, k, boundary):
    """np.roll(U, -k, axis=1) by slicing, the edge cell held for outflow."""
    out = np.empty_like(U)
    if k > 0:
        out[:, :-k] = U[:, k:]
        out[:, -k:] = U[:, :k] if boundary == "periodic" else U[:, -1:]
    else:
        out[:, -k:] = U[:, :k]
        out[:, :-k] = U[:, k:] if boundary == "periodic" else U[:, :1]
    return out


def _check_state(U, initial_scale, t):
    if not np.all(np.isfinite(U)):
        raise BlowupDetected(f"non-finite state at t = {t:.6g}")
    if np.max(np.abs(U)) > BLOWUP_FACTOR * (1.0 + initial_scale):
        raise BlowupDetected(f"state magnitude exceeded blowup threshold at t = {t:.6g}")


def _block_update(U, Up, Um, A, pairs, rhs, dt, dx, scheme):
    """One first-order step of U_t + A U_x = rhs on one block from U and its
    neighbours Up, Um (see _shift).  pairs holds the block's characteristic
    speeds, right vectors V and left vectors L = V^-1 (upwind only); rhs is
    None when the block has no right-hand side."""
    if scheme == "laxFriedrichs":
        DU = (Up - Um) / (2.0 * dx)                       # (n, N)
        AU = np.einsum("Nij,jN->iN", A, DU)
        out = 0.5 * (Up + Um) - dt * AU
    else:
        lam, V, L = pairs
        ap = np.einsum("Nmj,jN->Nm", L, (Up - U) / dx)
        am = np.einsum("Nmj,jN->Nm", L, (U - Um) / dx)
        alpha = np.where(lam > 0.0, am, ap)                # (N, m)
        flux = np.einsum("Nim,Nm->iN", V, lam * alpha)
        out = U - dt * flux
    return out if rhs is None else out + dt * rhs


def _real_max(lam):
    """max |lambda| of a stack's eigenvalues; NonHyperbolic when some are complex."""
    if np.max(np.abs(lam.imag)) > 1e-8 * (1.0 + np.max(np.abs(lam.real))):
        raise NonHyperbolic("complex characteristic speeds on the realized states")
    return float(np.max(np.abs(lam.real)))


def _scaled_2x2(A):
    """Closed-form spectra of a 2x2 stack.  Each cell is divided by its
    largest |entry| s; returns s, the scaled entries (a, b, c, d), the half
    trace, the root of the quarter discriminant and the safely real cells
    (see SAFE_DISC; an all-zero cell is not one)."""
    s = np.abs(A).max(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, c, d = (A.reshape(-1, 4) / s[:, None]).T
    half = 0.5 * (a - d)
    disc = half * half + b * c
    safe = disc > SAFE_DISC
    return s, (a, b, c, d), 0.5 * (a + d), np.sqrt(np.where(safe, disc, 0.0)), safe


def _block_speeds(A, work):
    """The eigenvalues of a block stack that hold its largest |lambda| and
    any complex one: a 1x1 block's entries; for a 2x2 block whose cells are
    all safely real, eigvals of the cells whose closed-form speed lies within
    SPEED_MARGIN of the largest (eigvals gives each matrix its own bits);
    else, or when those come back complex, eigvals of the whole block."""
    m = A.shape[-1]
    if m == 1:
        return A.ravel()
    if m == 2:
        s, _, mean, root, safe = _scaled_2x2(A)
        if safe.all():
            est = s * (np.abs(mean) + root)
            near = est >= (1.0 - SPEED_MARGIN) * est.max()
            lam = np.linalg.eigvals(A[near])
            work["eigvalsCells"] += int(near.sum())
            if not lam.imag.any():
                return lam.ravel()
    work["eigvalsCells"] += len(A)
    return np.linalg.eigvals(A).ravel()


def _max_speed(A, work):
    """The CFL speed max |lambda| and its NonHyperbolic decision, one test
    over the union of the spectra of A's diagonal blocks (_block_speeds), A
    cut at every r where A[:, :r, r:] is exactly zero in every cell."""
    n = A.shape[-1]
    cuts = [0] + [r for r in range(1, n) if not A[:, :r, r:].any()] + [n]
    return _real_max(np.concatenate([_block_speeds(A[:, r0:r1, r0:r1], work)
                                     for r0, r1 in zip(cuts[:-1], cuts[1:])]))


def _eig_pairs(A, work, cells=None):
    """Pairs (lam, V, V^-1) of a stack from eig + inv (see _real_pairs);
    cells[k] is the grid cell of A[k], k by default."""
    lam, V = np.linalg.eig(A)
    work["eigCells"] += len(A)
    return _real_pairs(lam, V, cells)


def _real_pairs(lam, V, cells=None):
    """(lam, V, V^-1) from the real parts of eig's pairs, real once the
    NonHyperbolic check has passed; NonHyperbolic names the first cell whose
    real parts are singular (a complex pair below that check's tolerance)."""
    try:
        return lam.real, V.real, np.linalg.inv(V.real)
    except np.linalg.LinAlgError:
        k = int(np.argmax(np.linalg.det(V.real) == 0))
        raise NonHyperbolic("no real eigenvector basis in grid cell "
                            f"{k if cells is None else cells[k]}") from None


def _pairs(A, work):
    """Upwind pairs (lam, V, L = V^-1) of a block stack: (a, 1, 1) for 1x1
    blocks; closed form for the safely real cells of 2x2 blocks, where each
    eigenvector is the larger of the null vectors (b, lam - a) and
    (lam - d, c) of the two rows of A - lam I, and eig + inv for the other
    cells; eig + inv for larger blocks."""
    m = A.shape[-1]
    if m == 1:
        work["closedFormCells"] += len(A)
        one = np.ones_like(A)
        return A[:, :, 0], one, one
    if m > 2:
        return _eig_pairs(A, work)
    s, (a, b, c, d), mean, root, safe = _scaled_2x2(A)
    lam = np.stack([mean + root, mean - root], axis=1)            # (N, 2) of A/s
    la, ld = lam - a[:, None], lam - d[:, None]
    b, c = np.broadcast_to(b[:, None], la.shape), np.broadcast_to(c[:, None], la.shape)
    first = b * b + la * la >= ld * ld + c * c
    V = np.where(first[:, None, :], np.stack([b, la], axis=1), np.stack([ld, c], axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.stack([np.stack([V[:, 1, 1], -V[:, 0, 1]], axis=1),
                      np.stack([-V[:, 1, 0], V[:, 0, 0]], axis=1)], axis=1) \
            / (V[:, 0, 0] * V[:, 1, 1] - V[:, 0, 1] * V[:, 1, 0])[:, None, None]
    lam = lam * s[:, None]
    work["closedFormCells"] += int(safe.sum())
    if not safe.all():
        lam[~safe], V[~safe], L[~safe] = _eig_pairs(A[~safe], work, np.flatnonzero(~safe))
    return lam, V, L


def _validate_block_triangular(sys_, bounds):
    """SchemaError unless A is block lower triangular at the probe states,
    evaluated as one stack; the first probe that is not finite or not
    triangular decides, and a non-finite one raises its one-state DomainError."""
    probes = sys_.sample_points(SamplePlan(count=TRIANGULAR_PROBES, seed=0))
    A = sys_.eval_matrix(probes[:, 0], probes[:, 1], probes[:, 2:])
    finite = np.isfinite(A).all(axis=(1, 2))
    scale = 1e-12 * (1 + np.abs(A).max(axis=(1, 2)))
    stop = ~finite | np.any([np.abs(A[:, r0:r1, r1:]).max(axis=(1, 2)) > scale
                             for r0, r1 in zip(bounds[:-2], bounds[1:-1])], axis=0)
    if stop.any():
        k = int(np.argmax(stop))
        if not finite[k]:
            sys_.eval_matrix(probes[k, 0], probes[k, 1], probes[k, 2:])
        raise SchemaError("hierarchical solve needs a block lower-triangular system")


def _march(sys_, sizes, initial, n_cells, t_end, scheme, cfl, boundary, t0):
    """March the blocks of `sizes` in hierarchy order (see solve_hierarchical);
    one block is the coupled solve.  A and g are evaluated at each cell's
    (t, x).  Each step does only the spectral work its scheme reads, and
    counts it in GridSolution.work.  A non-finite A at a realized state
    raises DomainError.

    Speeds.  The CFL speed max |lambda| and the hyperbolicity check come
    from A's diagonal blocks (see _max_speed and _block_speeds), with the
    bits of the largest |eigvals(block).real|.  These are the bits of
    max |eigvals(A).real| when the cut leaves one block, only 1x1 blocks (A
    exactly lower triangular), or blocks of at most 2x2 with exact zeros
    below them that share no eigenvalue (threadline keeps them too);
    elsewhere the two can differ in the last bits.  An upwind solve of a
    system with n > 2 in one block reads the eigenvalues of its one eig(A)
    instead, with the bits of eigvals(A).  So time levels and step counts
    never depend on how the pairs are formed.

    Pairs.  Upwinding alone reads eigenpairs (lam, V, L = V^-1), per block
    (see _pairs): (a, 1, 1) for a 1x1 block, closed form for the safely real
    cells of a 2x2 block and eig + inv for its other cells, eig + inv for a
    larger block.  Closed-form pairs move upwind states in the last bits
    only; Lax-Friedrichs never forms a pair."""
    if scheme not in SCHEMES:
        raise SchemaError(f"unknown scheme '{scheme}'")
    if not 0.0 < cfl <= 1.0:
        raise CFLViolation(f"cfl must lie in (0, 1], got {cfl}")
    if sum(sizes) != sys_.n:
        raise SchemaError("block sizes must sum to the system dimension")
    if n_cells < 2:
        raise SchemaError(f"the grid needs at least 2 cells, got {n_cells}")
    bounds = np.cumsum([0] + list(sizes))
    if len(sizes) > 1:
        _validate_block_triangular(sys_, bounds)
    upwind = scheme == "upwindCharacteristic"
    full_eig = upwind and len(sizes) == 1 and sys_.n > 2
    work = {"steps": 0, "closedFormCells": 0, "eigvalsCells": 0, "eigCells": 0}
    x, dx = _grid(sys_, n_cells)
    U0 = U = _initial_values(sys_, initial, x)
    initial_scale = float(np.max(np.abs(U)))
    t = t0
    while t < t_end - 1e-14:
        A = np.moveaxis(sys_.eval_matrix_batch(t, x, U), 2, 0)      # (N, n, n)
        if not np.isfinite(A).all():
            cell = int(np.argmin(np.isfinite(A).all(axis=(1, 2))))
            raise DomainError(f"non-finite A at t = {t:.6g}, x = {x[cell]:.6g}, "
                              f"u = {U[:, cell].tolist()}")
        if full_eig:
            lam, V = np.linalg.eig(A)
            work["eigCells"] += len(A)
            lam_max = _real_max(lam)
        else:
            lam_max = _max_speed(A, work)
        dt = t_end - t if lam_max == 0.0 else min(cfl * dx / lam_max, t_end - t)
        if dt <= 0:
            break
        g = sys_.eval_source_batch(t, x, U) if not sys_.homogeneous else None
        new = np.empty_like(U)
        Up, Um = _shift(U, 1, boundary), _shift(U, -1, boundary)
        for r0, r1 in zip(bounds[:-1], bounds[1:]):
            Ab = A[:, r0:r1, r0:r1]
            rhs = None if g is None else g[r0:r1]
            if r0 > 0:
                # cross-flux from already-known lower blocks, central differences
                Dlow = (Up[:r0] - Um[:r0]) / (2.0 * dx)
                cross = np.einsum("Nij,jN->iN", A[:, r0:r1, :r0], Dlow)
                rhs = -cross if rhs is None else rhs - cross
            if not upwind:
                pairs = None
            elif full_eig:
                pairs = _real_pairs(lam, V)
            else:
                pairs = _pairs(Ab, work)
            new[r0:r1] = _block_update(U[r0:r1], Up[r0:r1], Um[r0:r1], Ab, pairs, rhs,
                                       dt, dx, scheme)
        U = new
        t += dt
        _check_state(U, initial_scale, t)
        work["steps"] += 1
        if work["steps"] > 200000:
            raise BlowupDetected("step count safety limit reached")
    meta = {"steps": work["steps"], "cells": n_cells, "tEnd": t_end}
    return GridSolution(x=x, times=[t0, t], data=[U0, U], scheme=scheme, cfl=cfl,
                        boundary=boundary, meta=meta, work=work)


def solve_coupled(sys_: QuasilinearSystem, initial, n_cells, t_end,
                  scheme="laxFriedrichs", cfl=0.9, boundary="periodic",
                  t0=0.0) -> GridSolution:
    """March u_t + A(t, x, u) u_x = g(t, x, u) to t_end, first-order accurate."""
    return _march(sys_, (sys_.n,), initial, n_cells, t_end, scheme, cfl, boundary, t0)


def solve_hierarchical(sys_: QuasilinearSystem, sizes, initial, n_cells, t_end,
                       scheme="laxFriedrichs", cfl=0.9, boundary="periodic",
                       t0=0.0) -> GridSolution:
    """Solve a block lower-triangular system block by block.

    All blocks advance with the global CFL time step; block i reads blocks
    < i frozen at the step's starting time level, both for matrix entries and
    for the cross-derivative terms moved to the right-hand side.
    """
    sol = _march(sys_, sizes, initial, n_cells, t_end, scheme, cfl, boundary, t0)
    sol.meta["blocks"] = list(sizes)
    return sol


def compare_solutions(a: GridSolution, b: GridSolution, mapping=None,
                      map_states=None, parameters=None):
    """Discrete L1/Linf norms of (mapped a) - b per stored time level."""
    if a.n_cells != b.n_cells or len(a.times) != len(b.times):
        raise GridMismatch("solutions live on different grids or time level sets")
    if not np.allclose(a.x, b.x):
        raise GridMismatch("cell centers differ")
    for ta, tb in zip(a.times, b.times):
        if abs(ta - tb) > 1e-10 * (1.0 + abs(tb)):
            raise GridMismatch("time levels differ")
    map_fn = None
    if mapping is not None:
        parameters = parameters or {}
        comps = []
        for e in mapping:
            if not isinstance(e, ex.Expr):
                e = ex.parse(str(e), set(map_states) | set(parameters))
            comps.append(ex.substitute(e, parameters))
        map_fn = ex.compile_expression(comps, list(map_states))
    dx = float(a.x[1] - a.x[0])
    out = []
    for level in range(len(a.times)):
        ua = a.data[level]
        if map_fn is not None:
            ua = np.stack(map_fn(*ua))
        diff = ua - b.data[level]
        out.append({
            "t": float(a.times[level]),
            "L1": [float(np.sum(np.abs(d)) * dx) for d in diff],
            "Linf": [float(np.max(np.abs(d))) for d in diff],
            "L1total": float(np.sum(np.abs(diff)) * dx),
            "LinfTotal": float(np.max(np.abs(diff))),
        })
    return out


def burgers_exact(u0_fn, x, t, length=None, tol=1e-12, max_iter=500):
    """Pre-shock Burgers solution by characteristic tracing: solves
    u = u0(x - u t) by fixed-point iteration (contraction for t |u0'| < 1)."""
    x = np.asarray(x, dtype=float)
    u = u0_fn(x)
    for _ in range(max_iter):
        arg = x - u * t
        if length is not None:
            lo = x[0] - 0.5 * (x[1] - x[0])
            arg = lo + np.mod(arg - lo, length)
        nxt = u0_fn(arg)
        if np.max(np.abs(nxt - u)) <= tol:
            return nxt
        u = nxt
    return u


def solution_meta(sol: GridSolution):
    """The solve's settings, time levels and march metadata, as a report
    entry."""
    return {
        "scheme": sol.scheme,
        "cfl": sol.cfl,
        "boundary": sol.boundary,
        "cells": sol.n_cells,
        "times": [float(t) for t in sol.times],
        "meta": sol.meta,
    }
