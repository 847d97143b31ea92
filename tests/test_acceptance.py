"""Acceptance criteria, one test per criterion, at the stated scales.

Every test prints a single PASS/FAIL line (visible in any pytest run).
Criteria 01-08 build their own path bundles at their own scales and seeds
and call the check functions of ``fbmcontrol.verify``, where the check
formulas and their tolerances live; the CLI suites call the same functions.
Criteria 09 and 10 call the solve-lq gates of ``fbmcontrol.verify``;
criteria 11 and 12 pin their tolerances inline.  Seeds are fixed so reruns
are deterministic.  Heavy path bundles are shared through module fixtures.
"""

import json
import sys
import time

import numpy as np
import pytest

from fbmcontrol import verify
from fbmcontrol.adjoint import (estimate_p, estimate_q_formula,
                                stationarity_residual)
from fbmcontrol.cli import main as cli_main
from fbmcontrol.fbm import (TimeGrid, coarsen, fbm_from_cholesky,
                            fbm_from_kernel, generate_bm)
from fbmcontrol.lq import (LqSpec, PicardOptions, convexity_check,
                           lq_adjoint_problem, lq_model, lq_picard_solve,
                           optimality_sweep, riccati_oracle,
                           random_adapted_directions)
from fbmcontrol.sde import ControlProcess

SEED = 202


def report(name: str, passed: bool, detail: str) -> None:
    # bypass pytest capture: one visible line per criterion in every run
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}",
          file=sys.__stdout__, flush=True)
    assert passed, f"{name}: {detail}"


def brownian_lq():
    return LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.0,
                  Q=1.0, R=1.0, G=1.0, x0=1.0, T=1.0)


def mixed_lq():
    return LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.3,
                  Q=1.0, R=1.0, G=1.0, x0=1.0, T=1.0)


@pytest.fixture(scope="module")
def paths_2e4_256():
    grid = TimeGrid(1.0, 256)
    return fbm_from_kernel(generate_bm(grid, 1, 20_000, seed=SEED), 0.75)


@pytest.fixture(scope="module")
def solved_brownian(paths_2e4_256):
    return lq_picard_solve(brownian_lq(), paths_2e4_256,
                           PicardOptions(tol=1e-5, max_iter=20))


def test_criterion_01_covariance_reproduction():
    """Cholesky-generated B^H matches the analytic covariance at probe pairs."""
    t0 = time.time()
    grid = TimeGrid(1.0, 256)
    probes = [(64, 256), (128, 256), (192, 256), (64, 128),
              (128, 192), (64, 192), (128, 128), (256, 256)]
    checks = []
    for H in (0.6, 0.75, 0.9):
        checks += verify.cholesky_covariance(
            fbm_from_cholesky(grid, H, 1, 100_000, seed=SEED), probes)
    worst = max(c.value for c in checks)
    elapsed = time.time() - t0
    report("criterion-01 covariance reproduction",
           all(c.passed for c in checks) and elapsed <= 120,
           f"worst |z| = {worst:.2f} over 8 pairs x 3 H (tol 4), {elapsed:.0f}s")


def test_criterion_02_kernel_representation_fidelity():
    """Kernel-coupled B^H variance at T: within 4 stderr and refining."""
    H = 0.75
    bm512 = generate_bm(TimeGrid(1.0, 512), 1, 100_000, seed=SEED)
    p512 = fbm_from_kernel(bm512, H)
    [check] = verify.kernel_terminal_variance(p512)
    v512 = p512.BH[:, 0, -1].var(ddof=1)
    del p512
    v128 = fbm_from_kernel(coarsen(bm512, 4), H).BH[:, 0, -1].var(ddof=1)
    refining = abs(v128 - 1.0) > abs(v512 - 1.0)
    report("criterion-02 kernel representation fidelity",
           check.passed and refining,
           f"z(512) = {check.value:.2f} (tol 4); |bias| {abs(v128-1):.4f} -> "
           f"{abs(v512-1):.4f} under 128->512 on shared noise")


def test_criterion_03_operator_isometry():
    """Gamma* isometry within 1% and transfer correlation >= 0.99, refining."""
    iso = verify.isometry(TimeGrid(1.0, 1024), (0.6, 0.75, 0.9))
    transfer = verify.transfer_refinement(fbm_from_kernel(
        generate_bm(TimeGrid(1.0, 2048), 1, 3000, seed=SEED), 0.75))
    worst = max(c.value for c in iso)
    corrs = transfer[-1].levels
    report("criterion-03 operator isometry + transfer",
           all(c.passed for c in iso + transfer),
           f"worst isometry rel err {worst:.2e} (tol 1e-2); "
           f"corr 512/1024/2048 = {['%.5f' % c for c in corrs]}")


def test_criterion_04_fundamental_pair_refinement():
    """max |Phi Psi - 1| shrinks by >= 1.8x per halving over three halvings.

    Fixture: fractional-dominant linearization (gamma_x = 0.3, H = 0.95),
    see ``verify.phi_psi_refinement``.
    """
    [check] = verify.phi_psi_refinement(fbm_from_kernel(
        generate_bm(TimeGrid(1.0, 2048), 1, 4000, seed=SEED), 0.95))
    errs = check.levels
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    report("criterion-04 fundamental pair refinement", check.passed,
           f"defects {['%.2e' % e for e in errs]}, per-halving ratios "
           f"{['%.2f' % r for r in ratios]} (tol >= 1.8)")


def test_criterion_05_variation_explicit_formula():
    """Terminal mean-square gap direct-vs-explicit is monotone 256->512->1024."""
    [check] = verify.variation_gap_refinement(fbm_from_kernel(
        generate_bm(TimeGrid(1.0, 1024), 1, 4000, seed=SEED), 0.75), mixed_lq())
    report("criterion-05 explicit variation formula", check.passed,
           f"terminal mean-square gaps {['%.3e' % g for g in check.levels]} "
           f"(monotone)")


def test_criterion_06_first_order_expansion(paths_2e4_256):
    """E|X~^eps(T)|^2 decreases at the O(eps^2) rate on the nonlinear fixture."""
    t0 = time.time()
    checks = verify.lemma1(paths_2e4_256)
    vals = checks[0].levels  # terminal_sq
    ratios = [vals[i] / vals[i + 1] for i in range(3)]
    elapsed = time.time() - t0
    report("criterion-06 first-order expansion",
           all(c.passed for c in checks) and elapsed <= 300,
           f"terminal ratios {['%.2f' % r for r in ratios]} (target ~4, "
           f"band [2.5, 6]), all norms monotone, {elapsed:.0f}s")


def test_criterion_07_adjoint_q_consistency():
    """Closed-form q matches the bump oracle within 3 combined stderr."""
    [check] = verify.q_formula_vs_bump(fbm_from_kernel(
        generate_bm(TimeGrid(1.0, 512), 1, 10_000, seed=SEED), 0.75), brownian_lq())
    report("criterion-07 adjoint q consistency", check.passed,
           f"worst |z| = {check.value:.2f} at every 8th node (tol 3)")


def test_criterion_08_bsde_residual(paths_2e4_256):
    """Per-node mean BSDE residual within 3 stderr; mean square refining."""
    resid, refine = verify.bsde_residual_checks(paths_2e4_256, brownian_lq())
    msq128, msq256 = refine.levels
    report("criterion-08 BSDE residual", resid.passed and refine.passed,
           f"max |z| = {resid.value:.2f} over all nodes (tol 3); mean-square "
           f"{msq128:.2e} -> {msq256:.2e}")


def test_criterion_09_lq_vs_riccati(paths_2e4_256, solved_brownian):
    """Picard solve agrees with the Riccati oracle within its budget."""
    t0 = time.time()
    sol = solved_brownian
    ric = riccati_oracle(brownian_lq(), paths_2e4_256.grid)
    check = verify.riccati_agreement(sol.J, sol.J_stderr, ric.J)
    elapsed = time.time() - t0
    report("criterion-09 LQ vs Riccati oracle",
           sol.converged and len(sol.iterations) <= 20 and check.passed
           and elapsed <= 300,
           f"J_MC = {sol.J:.6f} +- {sol.J_stderr:.6f}, J_riccati = {ric.J:.6f}, "
           f"|gap| = {check.value:.2e} <= {check.tolerance:.2e}; "
           f"{len(sol.iterations)} iterations")


def test_criterion_10_stationarity_residuals(paths_2e4_256):
    """Mixed-fixture stationarity: ~0 at the optimum, flagged when perturbed."""
    spec = mixed_lq()
    sol = lq_picard_solve(spec, paths_2e4_256, PicardOptions(tol=1e-5, max_iter=30))
    assert sol.converged
    opt = verify.stationarity(stationarity_residual(sol.problem, sol.estimate))
    u_bad = ControlProcess.from_values(1.2 * sol.u.values)
    prob_bad = lq_adjoint_problem(spec, lq_model(spec), u_bad, paths_2e4_256)
    est_bad = estimate_q_formula(prob_bad, estimate_p(prob_bad))
    z_bad = stationarity_residual(prob_bad, est_bad).max_abs_z()
    report("criterion-10 maximum-principle residuals",
           opt.passed and z_bad > 5.0,
           f"optimum max |z| = {opt.value:.2f} (tol 3); 20%-perturbed control "
           f"max |z| = {z_bad:.1f} (> 5)")


def test_criterion_11_optimality_and_convexity(paths_2e4_256, solved_brownian):
    """Sweep, convexity margin and the two-initialization uniqueness proxy."""
    spec = brownian_lq()
    paths = paths_2e4_256
    sol = solved_brownian
    directions = random_adapted_directions(paths, 8, seed=SEED + 9)
    rows = optimality_sweep(spec, sol.u, directions, [0.05, 0.1, 0.2], paths)
    sweep_ok = all(r.diff_ok() and r.deriv_ok() for r in rows)
    conv = convexity_check(
        spec, sol.u,
        ControlProcess.from_values(sol.u.values
                                   + 0.5 * np.sin(3 * paths.grid.nodes)), paths)
    other = lq_picard_solve(spec, paths, PicardOptions(tol=1e-5, max_iter=30, u0=1.0))
    dist = sol.control_l2_distance(other)
    report("criterion-11 optimality and convexity",
           sweep_ok and conv.holds() and other.converged and dist < 5e-5,
           f"sweep 8x3 all within bands; convexity margin {conv.margin_mean:.3e} "
           f">= -3 x {conv.margin_stderr:.1e}; two-start control distance "
           f"{dist:.2e} < 5e-5")


def test_criterion_12_determinism(tmp_path):
    """Identical config and any worker count give byte-identical CSVs."""
    cfg = {"experiment": "acceptance-determinism", "n_paths": 500,
           "n_steps": 64, "seed": SEED, "tol": 1e-4, "n_directions": 2,
           "eps_list": [0.1]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name, workers in (("w1", "1"), ("w3", "3")):
        out = tmp_path / name
        rc = cli_main(["solve-lq", "--config", str(cfg_path),
                       "--out", str(out), "--workers", workers])
        assert rc == 0
        rc = cli_main(["paths", "--config", str(cfg_path),
                       "--out", str(out), "--workers", workers])
        assert rc == 0
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("paths.csv", "control.csv", "adjoint.csv",
                  "optimality_sweep.csv", "stationarity_residual.csv"))
    report("criterion-12 determinism", identical,
           "paths/control/adjoint/sweep/residual CSVs byte-identical "
           "across reruns and worker counts")
