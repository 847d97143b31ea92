"""Checks of the paper's identities, shared by the CLI and the acceptance tests.

Each check takes its inputs already built (a path bundle, an LqSpec, Hurst
values, probe pairs) and returns a list of :class:`CheckResult` (the two
gates of the LQ solve return one); its tolerances are pinned beside it, and each result names the bundle or grid
it ran on.  A suite builds the CLI's bundles from the config and calls the
checks; the acceptance criteria build their own bundles at their own
scales and call the same checks.  A suite passes iff every check does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import (estimate_p, estimate_q_bump, estimate_q_formula,
                      bsde_residual)
from .errors import DomainError
from .fbm import (PathSet, TimeGrid, _check_power, _hval, coarsen,
                  fbm_covariance, fbm_from_cholesky, fbm_from_kernel,
                  generate_bm, kernel_z_closed)
from .lq import LqSpec, lq_adjoint_problem, lq_model
from .sde import (ROW_CHUNK, ControlProcess, CoefficientModel, Linearization,
                  StatePath, fundamental_phi, fundamental_psi, linearize,
                  lemma1_experiment, variation_direct, variation_explicit)
from .transforms import GridFunction, isometry_check, transfer_check

__all__ = ["CheckResult", "SUITES", "IGNORED_CONFIG", "run_suite",
           "suite_names", "ran_at",
           "kernel_sq_identity", "cholesky_covariance",
           "kernel_terminal_variance", "cross_generator_variance", "isometry",
           "transfer_refinement", "phi_psi_refinement",
           "variation_gap_refinement", "lemma1", "q_formula_vs_bump",
           "bsde_residual_checks", "riccati_agreement", "stationarity",
           "nonlinear_lemma_model"]

_HURSTS = (0.6, 0.75, 0.9)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    stderr: float
    tolerance: float
    passed: bool
    detail: str = ""
    levels: tuple = ()  # a refinement check's per-level values, coarse to fine
    at: tuple = ()      # the bundles or grids it ran on, see _bundle_at

    def row(self) -> str:
        return f"{self.name},{self.value:.17g},{self.stderr:.17g}"


def _check(name, value, tolerance, passed, stderr=0.0, detail="", levels=(),
           at=()):
    return CheckResult(name, float(value), float(stderr), float(tolerance),
                       bool(passed), detail, tuple(levels), tuple(at))


def _bundle_at(paths: PathSet, factors=(1,)) -> str:
    """A path bundle as a check saw it, coarsened by each of ``factors``."""
    steps = "/".join(str(paths.grid.n_steps // f) for f in factors)
    kind = "kernel" if paths.dB is not None else "cholesky"
    return (f"{kind} paths T={paths.grid.horizon} n_steps={steps} "
            f"n_paths={paths.n_paths} m={paths.m} H={_hval(paths.hurst)} "
            f"seed={paths.seed}")


def _hursts_at(hursts) -> str:
    return "H=" + "/".join(str(H) for H in hursts)


def ran_at(checks) -> list[str]:
    """Every bundle or grid the checks ran on, once each, in order."""
    return list(dict.fromkeys(a for c in checks for a in c.at))


# ---------------------------------------------------------------------------
# generators against the analytic law

# QUADPACK's qk15 (Piessens et al., 1983): the Kronrod nodes in [0, 1), the
# 15-point Kronrod weights at them, and the 7-point Gauss weights at the odd
# ones (0 is the last node of both)
_QK15_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
           0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
           0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
           0.207784955007898467600689403773245, 0.0)
_QK15_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
            0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
            0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_QK15_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# the 15 nodes on [-1, 1] in ascending order, and both rules' weights there
_GK_X = np.r_[np.negative(_QK15_X[:-1]), _QK15_X[::-1]]
_GK_WK = np.r_[_QK15_WK[:-1], _QK15_WK[::-1]]
_GK_WG = np.zeros(15)
_GK_WG[1::2] = np.r_[_QK15_WG[:-1], _QK15_WG[::-1]]
# rounds at most: the last intervals are 2^-39 of the first, so every node
# lies over 2^-39 (1 - 0.99146)/2 > 7e-15 of the first's length inside it
_GK_ROUNDS = 40
_GK_MAX_OPEN = 1024  # open intervals at most, so a round's array stays small
_SQ_TOL = 1e-13  # the identity integral's error target, absolute or relative


def _gauss_kronrod(f, a: float, b: float, tol: float) -> tuple[float, float, bool]:
    """int_a^b f by adaptive Gauss-Kronrod 7/15: (estimate, error, converged).

    Each round calls ``f`` once, on an (intervals, 15) array of the nodes of
    every open interval, and takes |K15 - G7| as an interval's error.  The
    run stops when the summed error is within max(tol, tol |estimate|).
    Until then an interval whose error is within its length's share of
    what the accepted ones left of that target is accepted, and the others
    are bisected.  It stops unconverged after ``_GK_ROUNDS`` rounds, or in
    a round that finds ``_GK_MAX_OPEN`` or more intervals open.  No node is
    a or b.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    value = error = 0.0  # of the accepted intervals
    for rounds in range(1, _GK_ROUNDS + 1):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        fx = f(mid[:, None] + half[:, None] * _GK_X)
        kronrod = half * (fx @ _GK_WK)
        err = np.abs(kronrod - half * (fx @ _GK_WG))
        total, total_err = value + kronrod.sum(), error + err.sum()
        target = tol * max(1.0, abs(total))
        if (total_err <= target or rounds == _GK_ROUNDS
                or len(lo) >= _GK_MAX_OPEN):
            return float(total), float(total_err), bool(total_err <= target)
        ok = err <= (target - error) * (hi - lo) / (hi - lo).sum()
        value += kronrod[ok].sum()
        error += err[ok].sum()
        lo, mid, hi = lo[~ok], mid[~ok], hi[~ok]
        lo, hi = np.r_[lo, mid], np.r_[mid, hi]


def _split_integral(f, t: float, alpha: float,
                    tol: float) -> tuple[float, float, bool]:
    """int_0^t f by ``_gauss_kronrod`` on (0, t/2] and [t/2, t), to tol in
    all: (estimate, error, converged).

    f may grow like s^-alpha at 0 (0 <= alpha < 1) and must be bounded on
    [t/2, t).  On (0, t/2] the substitution s = t w^{1/(1-alpha)} makes the
    integrand bounded.
    """
    p = 1 / (1 - alpha)
    head = _gauss_kronrod(lambda w: f(t * w ** p) * (t * p * w ** (p - 1)),
                          0.0, 0.5 ** (1 - alpha), tol / 2)
    tail = _gauss_kronrod(f, t / 2, t, tol / 2)
    return head[0] + tail[0], head[1] + tail[1], head[2] and tail[2]


def _kernel_sq_integral(t: float, H: float) -> tuple[float, float, bool]:
    """int_0^t Z_H(t, s)^2 ds on ``kernel_z_closed`` by ``_split_integral``:
    Z^2 grows like s^{1-2H} at 0 and falls like (t-s)^{2H-1} at t."""
    return _split_integral(lambda s: kernel_z_closed(t, s, H) ** 2, t,
                           2 * H - 1, _SQ_TOL)


def kernel_sq_identity(hursts) -> list[CheckResult]:
    """int_0^t Z_H(t, s)^2 ds = t^{2H} within 1e-6 on ``kernel_z_closed``,
    the R that the kernel table's cells evaluate.  Its adaptive rule shares
    no node, weight or cell with the table's product rules.  An integral
    that misses its error target fails, with its estimate in the detail; so
    does one whose substituted node s = t w^{1/(2-2H)} underflows to 0,
    which happens as H -> 1."""
    out = []
    at = [f"closed-form Z_H by adaptive Gauss-Kronrod 7/15 {_hursts_at(hursts)} "
          f"t=0.25/0.5/1.0"]
    for H in hursts:
        for t in (0.25, 0.5, 1.0):
            try:
                val, err, converged = _kernel_sq_integral(t, H)
                detail = "" if converged else (
                    f"integral {val:.17g} +- {err:.3g} misses its error target")
            except DomainError:
                val, converged = float("nan"), False
                detail = "a node s = t w^(1/(2-2H)) underflows to 0"
            rel = abs(val - t ** (2 * H)) / t ** (2 * H)
            out.append(_check(f"kernel_sq_identity_H{H}_t{t}", rel, 1e-6,
                              converged and rel <= 1e-6, detail=detail, at=at))
    return out


def cholesky_covariance(paths: PathSet, probes) -> list[CheckResult]:
    """Sample covariance of B^H at node pairs (i, j) within 4 stderr of the law."""
    nodes = paths.grid.nodes
    out = []
    for (i, j) in probes:
        x, y = paths.BH[:, 0, i], paths.BH[:, 0, j]
        c_hat = float(np.mean(x * y))
        c_true = fbm_covariance(nodes[i], nodes[j], paths.hurst)
        se = float(np.std(x * y, ddof=1) / np.sqrt(paths.n_paths))
        if se > 0:
            z = abs(c_hat - c_true) / se
        else:  # a probe at node 0, where B^H = 0 on every path
            z = 0.0 if c_hat == c_true else float("inf")
        out.append(_check(f"cholesky_cov_{i}_{j}", z, 4.0, z <= 4.0,
                          stderr=se, detail=f"sample {c_hat:.5f} vs {c_true:.5f}",
                          at=[_bundle_at(paths)]))
    return out


def _terminal_variance(paths: PathSet, dim: int = 0) -> tuple[float, float]:
    """Sample variance of driver dim's B^H_T and its normal-theory stderr."""
    var_hat = float(paths.BH[:, dim, -1].var(ddof=1))
    return var_hat, var_hat * np.sqrt(2.0 / paths.n_paths)


def kernel_terminal_variance(paths: PathSet,
                             name: str = "kernel_terminal_variance") -> list[CheckResult]:
    """Sample variance of B^H at T within 4 stderr of T^{2H}, for every
    driver: the check is ``name`` with one driver, ``name_dim<j>`` with more."""
    T, H = paths.grid.horizon, _hval(paths.hurst)
    _check_power(T, 2 * H, "kernel_terminal_variance: T^(2H)")
    var_true = T ** (2 * H)
    out = []
    for j in range(paths.m):
        var_hat, se = _terminal_variance(paths, j)
        z = abs(var_hat - var_true) / se
        out.append(_check(name if paths.m == 1 else f"{name}_dim{j}", z, 4.0,
                          z <= 4.0, stderr=se,
                          detail=f"sample {var_hat:.5f} vs {var_true:.5f}",
                          at=[_bundle_at(paths)]))
    return out


def cross_generator_variance(cholesky: PathSet, kernel: PathSet) -> list[CheckResult]:
    """Terminal variances of the two generators agree within 4 joint stderr
    plus 2% of T^{2H} (Monte Carlo and discretization error)."""
    var_k, se_k = _terminal_variance(kernel)
    var_ch, se_ch = _terminal_variance(cholesky)
    se_j = np.hypot(se_k, se_ch)
    gap = abs(var_k - var_ch)
    tol = 4 * se_j + 0.02 * kernel.grid.horizon ** (2 * _hval(kernel.hurst))
    return [_check("cross_generator_variance", gap, tol, gap <= tol,
                   stderr=se_j, at=[_bundle_at(cholesky), _bundle_at(kernel)])]


# ---------------------------------------------------------------------------
# operators: isometry and transfer identity

_ISOMETRY_FNS = {"one": lambda t: np.ones_like(t), "t": lambda t: t,
                 "sin": lambda t: np.sin(2 * np.pi * t)}


def isometry(grid: TimeGrid, hursts) -> list[CheckResult]:
    """int (Gamma* f)^2 dt = ||f||_T^2 within 1% for 1, t and sin(2 pi t)."""
    out = []
    at = [f"grid T={grid.horizon} n_steps={grid.n_steps} {_hursts_at(hursts)}"]
    for H in hursts:
        for name, fn in _ISOMETRY_FNS.items():
            rep = isometry_check(GridFunction.from_callable(grid, fn), H)
            out.append(_check(f"isometry_H{H}_{name}", rep["rel_err"], 1e-2,
                              rep["rel_err"] <= 1e-2,
                              detail=f"lhs {rep['lhs']:.6f} rhs {rep['rhs']:.6f}",
                              at=at))
    return out


def transfer_refinement(fine: PathSet) -> list[CheckResult]:
    """Transfer correlation on fine/4, fine/2 and fine steps: >= 0.99 at the
    middle level and increasing under refinement."""
    corrs = []
    factors = (4, 2, 1)
    at = [_bundle_at(fine, factors)]
    for fac in factors:
        p = coarsen(fine, fac)
        f = GridFunction.from_callable(p.grid, lambda t: np.sin(2 * np.pi * t) + t)
        corrs.append(transfer_check(f, p).correlation)
    mono = corrs[0] < corrs[1] < corrs[2]
    return [_check(f"transfer_corr_{fine.grid.n_steps // 2}", corrs[1], 0.99,
                   corrs[1] >= 0.99, at=at),
            _check("transfer_corr_monotone", corrs[2] - corrs[0], 0.0, mono,
                   detail=f"corrs {['%.5f' % c for c in corrs]}", levels=corrs,
                   at=at)]


# ---------------------------------------------------------------------------
# fundamental pair and the explicit variation formula


def _max_product_defect(phi: np.ndarray, psi: np.ndarray) -> np.float64:
    """max |Phi Psi - 1|, reduced ROW_CHUNK paths at a time with no product
    array; a max is exact, so it equals the whole-array reduction."""
    def chunk_max(rows):
        d = phi[rows] * psi[rows]
        d -= 1
        return np.abs(d, out=d).max()
    return np.max([chunk_max(slice(p0, p0 + ROW_CHUNK))
                   for p0 in range(0, len(phi), ROW_CHUNK)])


def _lq_linearization(model: CoefficientModel, paths: PathSet) -> Linearization:
    """``linearize`` of an ``lq_model`` on the grid of ``paths``, with no
    Euler run: its partials are per-node values of time functions and never
    read the state or the control, so a zero state (a stride-0 view) gives
    the linearization along any state, bit for bit."""
    zero = StatePath(paths.grid, np.broadcast_to(0.0, (paths.n_paths,
                                                       paths.grid.n_nodes)))
    return linearize(model, zero, ControlProcess.constant(0.0))


def phi_psi_refinement(fine: PathSet) -> list[CheckResult]:
    """max |Phi Psi - 1| falls >= 1.8x per halving over three halvings.

    Fractional-dominant fixture, the LQ model with N = 0.3 and no other
    term (gamma_x = 0.3, no Brownian terms): with Brownian diffusion the
    Euler product defect is O(sqrt(dt)) and no first-order scheme reaches
    the 1.8 rate.
    """
    model = lq_model(LqSpec(A=0.0, A_tilde=0.0, M=0.0, N=0.3))
    errs = []
    factors = (8, 4, 2, 1)
    for fac in factors:
        p = coarsen(fine, fac)
        # the pair is not held past its defect
        lin = _lq_linearization(model, p)
        errs.append(_max_product_defect(fundamental_phi(lin, p).X,
                                        fundamental_psi(lin, p).X))
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    return [_check("phi_psi_refinement_rate", min(ratios), 1.8,
                   min(ratios) >= 1.8,
                   detail=f"errors {['%.2e' % e for e in errs]}", levels=errs,
                   at=[_bundle_at(fine, factors)])]


def variation_gap_refinement(fine: PathSet, spec: LqSpec) -> list[CheckResult]:
    """Terminal mean-square gap between the direct and the explicit variation
    decreases on fine/4, fine/2 and fine steps (u = 0, v = 1)."""
    model = lq_model(spec)
    gaps = []
    factors = (4, 2, 1)
    for fac in factors:
        p = coarsen(fine, fac)
        lin = _lq_linearization(model, p)
        v = np.ones((p.n_paths, p.grid.n_nodes))
        yd = variation_direct(lin, v, p)
        ye = variation_explicit(fundamental_phi(lin, p), fundamental_psi(lin, p),
                                lin, v, p)
        gaps.append(float(np.mean((yd.X[:, -1] - ye.X[:, -1]) ** 2)))
    mono = gaps[0] > gaps[1] > gaps[2]
    return [_check("variation_direct_vs_explicit", gaps[-1], gaps[0], mono,
                   detail=f"gaps {['%.3e' % g for g in gaps]}", levels=gaps,
                   at=[_bundle_at(fine, factors)])]


# ---------------------------------------------------------------------------
# first-order expansion error decays at the O(eps^2) rate


def nonlinear_lemma_model():
    zero = lambda t, x, u: np.zeros_like(np.asarray(x, dtype=float))
    one = lambda t, x, u: np.ones_like(np.asarray(x, dtype=float))
    return CoefficientModel(
        m=1,
        b=lambda t, x, u: np.sin(x) + u,
        sigma=[lambda t, x, u: np.cos(x)],
        gamma=[lambda t, x, u: 0.5 + 0.1 * np.sin(x)],
        b_x=lambda t, x, u: np.cos(x), b_u=one,
        sigma_x=[lambda t, x, u: -np.sin(x)], sigma_u=[zero],
        gamma_x=[lambda t, x, u: 0.1 * np.cos(x)], gamma_u=[zero])


def lemma1_table_csv(rows, path) -> None:
    """Experiment-table export: one row per (epsilon, metric)."""
    with open(path, "w", newline="") as fh:
        fh.write("epsilon,metric,value,stderr\n")
        for r in rows:
            for metric in ("terminal_sq", "sup_sq", "alpha_norm_sq"):
                fh.write(f"{r['epsilon']:.17g},{metric},{r[metric]:.17g},"
                         f"{r[metric + '_stderr']:.17g}\n")


def lemma1(paths: PathSet, table_out=None) -> list[CheckResult]:
    """Lemma 1 on the nonlinear fixture (u* = 0.1, v = 1, x0 = 0.5): every
    norm of the expansion error decreases as eps halves from 0.2 to 0.025,
    the terminal one by a ratio in [2.5, 6] (O(eps^2) gives 4).  A level
    that is 0 or not finite (a degenerate horizon: at T = 1e-300 every
    error underflows to 0 and the alpha-norm weights overflow) fails its
    check.  The experiment table is written to ``table_out`` when given."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # floating-point faults show as such levels, reported below
        rows = lemma1_experiment(nonlinear_lemma_model(),
                                 ControlProcess.constant(0.1),
                                 ControlProcess.constant(1.0),
                                 [0.2, 0.1, 0.05, 0.025], paths, x0=0.5)
    if table_out is not None:
        lemma1_table_csv(rows, table_out)
    out = []
    for metric in ("terminal_sq", "sup_sq", "alpha_norm_sq"):
        vals = [r[metric] for r in rows]
        if not all(np.isfinite(v) and v > 0 for v in vals):
            fault = "0" if all(np.isfinite(vals)) else "not finite"
            out.append(_check(f"lemma1_{metric}", float("nan"), 2.5, False,
                              detail=f"values {['%.3e' % v for v in vals]}: "
                                     f"a level is {fault}",
                              levels=vals, at=[_bundle_at(paths)]))
            continue
        mono = all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        ratios = [vals[i] / vals[i + 1] for i in range(len(vals) - 1)]
        ok = mono and (metric != "terminal_sq"
                       or all(2.5 <= r <= 6.0 for r in ratios))
        out.append(_check(f"lemma1_{metric}", min(ratios), 2.5, ok,
                          detail=f"values {['%.3e' % v for v in vals]}, "
                                 f"ratios {['%.2f' % r for r in ratios]}",
                          levels=vals, at=[_bundle_at(paths)]))
    return out


# ---------------------------------------------------------------------------
# adjoint consistency and backward-equation residual, at the zero control


def _zero_control_problem(spec: LqSpec, paths: PathSet):
    u = ControlProcess.from_values(np.zeros((paths.n_paths, paths.grid.n_nodes)))
    return lq_adjoint_problem(spec, lq_model(spec), u, paths)


def q_formula_vs_bump(paths: PathSet, spec: LqSpec) -> list[CheckResult]:
    """Closed-form q matches the bump oracle within 3 combined stderr at
    every 8th node.  The oracle carries an O(dt) offset, so run it fine."""
    prob = _zero_control_problem(spec, paths)
    est = estimate_q_formula(prob, estimate_p(prob))
    qb = estimate_q_bump(prob, est)
    worst = 0.0
    for k in range(0, paths.grid.n_steps, 8):
        mf = est.q[0][:, k].mean()
        mb = np.nanmean(qb.q[0, :, k])
        se_f = est.q_raw[0][:, k].std(ddof=1) / np.sqrt(paths.n_paths)
        z = abs(mf - mb) / np.hypot(se_f, qb.mean_stderr[0, k])
        worst = max(worst, z)
    return [_check("q_formula_vs_bump", worst, 3.0, worst <= 3.0,
                   at=[_bundle_at(paths)])]


def _zero_control_bsde(spec: LqSpec, paths: PathSet):
    prob = _zero_control_problem(spec, paths)
    return bsde_residual(prob, estimate_q_formula(prob, estimate_p(prob)))


def bsde_residual_checks(paths: PathSet, spec: LqSpec) -> list[CheckResult]:
    """Per-node mean BSDE residual within 3 stderr, and its mean square
    smaller on ``paths`` than on their 2x coarsening."""
    factors = (2, 1)
    reps = [_zero_control_bsde(spec, coarsen(paths, fac)) for fac in factors]
    msqs = [float(rep.mean_sq.mean()) for rep in reps]
    zmax = reps[1].max_abs_z()
    at = [_bundle_at(paths, factors)]
    return [_check("bsde_mean_residual", zmax, 3.0, zmax <= 3.0, at=at),
            _check("bsde_mean_sq_refinement", msqs[1] / msqs[0], 1.0,
                   msqs[1] < msqs[0],
                   detail=f"mean_sq {msqs[0]:.3e} -> {msqs[1]:.3e}", levels=msqs,
                   at=at)]


# ---------------------------------------------------------------------------
# the LQ solve: Riccati oracle agreement and the stationarity residual


def riccati_agreement(J: float, J_stderr: float, J_riccati: float) -> CheckResult:
    """Monte Carlo J within 3 stderr plus 2% of J (the O(dt) Euler bias) of
    the Riccati oracle's cost."""
    gap = abs(J - J_riccati)
    budget = 3 * J_stderr + 0.02 * J
    return _check("riccati_agreement", gap, budget, gap <= budget,
                  stderr=J_stderr, detail=f"J {J:.8f} vs Riccati {J_riccati:.8f}")


def stationarity(report) -> CheckResult:
    """The stationarity residual's per-node mean within 3 stderr everywhere."""
    z = report.max_abs_z()
    return _check("stationarity_residual", z, 3.0, z <= 3.0)


# ---------------------------------------------------------------------------
# suites: the CLI's bundles, built from the config in a fixed order; a
# bundle that no later check reads is freed before the next one is built


def suite_covariance(*, hurst, n_steps, n_paths, seed, T, table_out):
    grid = TimeGrid(T, n_steps)
    ch = fbm_from_cholesky(grid, hurst, 1, n_paths, seed)
    kp = fbm_from_kernel(generate_bm(grid, 1, n_paths, seed + 1), hurst)
    probes = [(n_steps // 4, n_steps), (n_steps // 2, n_steps),
              (n_steps // 4, n_steps // 2), (n_steps, n_steps)]
    return [*kernel_sq_identity(_HURSTS), *cholesky_covariance(ch, probes),
            *kernel_terminal_variance(kp), *cross_generator_variance(ch, kp)]


def suite_operators(*, hurst, n_steps, n_paths, seed, T, table_out):
    fine = fbm_from_kernel(generate_bm(TimeGrid(T, 2048), 1, 4000, seed), 0.75)
    return [*isometry(TimeGrid(T, n_steps), _HURSTS), *transfer_refinement(fine)]


def suite_variation(*, hurst, n_steps, n_paths, seed, T, table_out):
    out = phi_psi_refinement(
        fbm_from_kernel(generate_bm(TimeGrid(T, 2048), 1, n_paths, seed), 0.95))
    # n_steps sets the finest variation level; coarse grids still report rates
    fine = fbm_from_kernel(generate_bm(TimeGrid(T, max(256, int(n_steps))), 1,
                                       n_paths, seed + 1), 0.75)
    spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3)
    return out + variation_gap_refinement(fine, spec)


def suite_lemma1(*, hurst, n_steps, n_paths, seed, T, table_out):
    paths = fbm_from_kernel(generate_bm(TimeGrid(T, n_steps), 1, n_paths, seed),
                            hurst)
    return lemma1(paths, table_out)


def suite_bsde(*, hurst, n_steps, n_paths, seed, T, table_out):
    spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.0)
    out = q_formula_vs_bump(
        fbm_from_kernel(generate_bm(TimeGrid(1.0, 512), 1, n_paths, seed), 0.75),
        spec)
    paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, 256), 1, n_paths, seed + 1),
                            0.75)
    return out + bsde_residual_checks(paths, spec)


SUITES = {
    "covariance": suite_covariance,
    "operators": suite_operators,
    "variation": suite_variation,
    "lemma1": suite_lemma1,
    "bsde": suite_bsde,
}

# the path fields of the config (T, n_steps, n_paths, hurst, seed, m) that a
# suite does not read: it runs at fixed values there, reported by ran_at
IGNORED_CONFIG = {
    "covariance": ("m",),
    "operators": ("hurst", "n_paths", "m"),
    "variation": ("hurst", "m"),
    "lemma1": ("m",),
    "bsde": ("T", "hurst", "n_steps", "m"),
}


def suite_names():
    return sorted(SUITES)


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    """Run a suite with the keywords hurst, n_steps, n_paths, seed, T and
    table_out; a missing or unknown keyword raises TypeError."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {suite_names()}")
    return SUITES[name](**kwargs)
