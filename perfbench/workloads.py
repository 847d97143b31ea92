"""Benchmark workloads: generated configs, CLI commands and traced sequences.

Every workload runs through the public CLI entry point ``fbmcontrol.cli.main``
in a fresh process, one command at a time.  The traced sequence of a workload
makes the same public calls the CLI commands make, each inside a span, then
replays single layers at the same sizes so they can be timed on their own
(spans under ``replay`` are not part of the workload's work).  Nothing inside
the package is instrumented.

Sizes are scaled down from the acceptance fixture so that one run of any
workload stays well under a minute (see NOTES.md for the reasons).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SUITE_ORDER = ("covariance", "operators", "variation", "lemma1", "bsde")

# Grids hard-coded inside the verify suites, as (T, n_steps, H): operators
# builds 2048-step paths at H 0.75, variation refines a 2048-step H 0.95 set,
# bsde works on 512 and 256 steps.  The traced run builds their kernel tables
# first so that the cold kernel cost of the workload is one layer number.
VERIFY_SUITE_GRIDS = ((1.0, 2048, 0.75), (1.0, 2048, 0.95), (1.0, 512, 0.75),
                      (1.0, 256, 0.75))

# Smoke size for the benchmark's own tests: shrinks what the config sets.
SMOKE = {"n_paths": 200, "n_steps": 32}


def lq_mixed_config(seed: int) -> dict:
    # criterion-10 fixture (mixed noise, N = 0.3) at 2 000 of its 20 000 paths
    return {"hurst": 0.75, "T": 1.0, "n_steps": 256, "n_paths": 2000,
            "seed": seed, "A": -1.0, "A_tilde": 1.0, "M": 0.2,
            "M_tilde": 0.0, "N": 0.3, "Q": 1.0, "R": 1.0, "G": 1.0,
            "x0": 1.0, "theta": 0.5, "tol": 1e-5, "max_iter": 30,
            "n_directions": 2}


def verify_suites_config(seed: int) -> dict:
    # CLI defaults apart from the path count (10 000 by default)
    return {"n_paths": 2000, "seed": seed}


def paths_fine_config(seed: int) -> dict:
    return {"hurst": 0.75, "T": 1.0, "n_steps": 2048, "n_paths": 250,
            "seed": seed}


# ---------------------------------------------------------------------------
# traced sequences (run inside the child process, package importable)


def _kernel_cold(tr, grids) -> None:
    from fbmcontrol import fbm
    for T, n, H in dict.fromkeys(grids):
        with tr.span("fbm.kernel_weights_cold", peak=True, n_steps=n, hurst=H):
            fbm.kernel_weights(fbm.TimeGrid(T, n), H)


def _replay_paths(tr, cfg: dict) -> None:
    """Path generation layer by layer at the workload's size."""
    from fbmcontrol import fbm, rng
    grid = fbm.TimeGrid(cfg["T"], cfg["n_steps"])
    with tr.span("rng.normal_block"):
        rng.SubstreamSampler(cfg["seed"]).normal_block(
            range(cfg["n_paths"]), cfg["m"], cfg["n_steps"])
    with tr.span("fbm.generate_bm"):
        bm = fbm.generate_bm(grid, cfg["m"], cfg["n_paths"], cfg["seed"])
    with tr.span("fbm.fbm_from_kernel"):
        fbm.fbm_from_kernel(bm, cfg["hurst"])


def _replay_adjoint(tr, spec, model, u, paths):
    """One Picard sweep's adjoint work at control ``u``, call by call."""
    from fbmcontrol import adjoint, lq
    with tr.span("adjoint.adjoint_problem"):
        prob = lq.lq_adjoint_problem(spec, model, u, paths)
    with tr.span("adjoint.estimate_p"):
        est = adjoint.estimate_p(prob)
    with tr.span("adjoint.estimate_q_formula"):
        est = adjoint.estimate_q_formula(prob, est)
    del prob
    with tr.span("mem.adjoint.adjoint_problem", peak=True):
        prob = lq.lq_adjoint_problem(spec, model, u, paths)
    with tr.span("mem.adjoint.estimate_p", peak=True):
        adjoint.estimate_p(prob)
    return prob, est


def _replay_state(tr, model, u, x0, paths):
    """Euler, partials and the fundamental pair at control ``u``."""
    from fbmcontrol import sde
    with tr.span("sde.euler_mixed"):
        x = sde.euler_mixed(model, u, x0, paths)
    with tr.span("sde.linearize"):
        lin = sde.linearize(model, x, u)
    with tr.span("sde.fundamental_phi"):
        phi = sde.fundamental_phi(lin, paths)
    with tr.span("sde.fundamental_psi"):
        psi = sde.fundamental_psi(lin, paths)
    del lin
    with tr.span("mem.sde.linearize", peak=True):
        lin = sde.linearize(model, x, u)
    return lin, phi, psi


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def trace_lq_mixed(tr, cfg_path: Path, out: Path) -> dict:
    """cmd_solve_lq's public calls in order, then one sweep replayed."""
    from fbmcontrol import adjoint, cli, fbm, lq, sde
    with tr.span("cli.load_config"):
        cfg = cli.load_config(cfg_path)
    spec = cli.lq_spec_from_config(cfg)
    grid = fbm.TimeGrid(cfg["T"], cfg["n_steps"])
    spec.validate_on(grid)
    _kernel_cold(tr, [(cfg["T"], cfg["n_steps"], cfg["hurst"])])
    with tr.span("cli.generate_paths"):
        paths = cli.generate_paths(cfg, 1)
    options = lq.PicardOptions(theta=cfg["theta"], tol=cfg["tol"],
                               max_iter=cfg["max_iter"], u0=cfg["u0"])
    with tr.span("lq.picard_solve"):
        sol = lq.lq_picard_solve(spec, paths, options)
    written = ["adjoint.csv"]
    with tr.span("cli.report_csv"):
        sol.estimate.to_csv(out / "adjoint.csv")
    n_rows = None
    if sol.converged:  # cmd_solve_lq stops after the adjoint export otherwise
        with tr.span("adjoint.residuals"):
            res = adjoint.stationarity_residual(sol.problem, sol.estimate)
        with tr.span("cli.report_csv"):
            res.to_csv(out / "stationarity_residual.csv")
        with tr.span("adjoint.residuals"):
            bs = adjoint.bsde_residual(sol.problem, sol.estimate)
        with tr.span("cli.report_csv"):
            bs.to_csv(out / "bsde_residual.csv")
        written += ["stationarity_residual.csv", "bsde_residual.csv"]
        if spec.is_brownian_only(grid):
            with tr.span("lq.riccati_oracle"):
                lq.riccati_oracle(spec, grid)
        with tr.span("lq.random_adapted_directions"):
            directions = lq.random_adapted_directions(
                paths, cfg["n_directions"], cfg["seed"] + 99)
        with tr.span("lq.optimality_sweep"):
            rows = lq.optimality_sweep(spec, sol.u, directions,
                                       cfg["eps_list"], paths)
        n_rows = len(rows)
        with tr.span("lq.convexity_check"):
            lq.convexity_check(spec, sol.u,
                               sde.ControlProcess.from_values(sol.u.values + 0.5),
                               paths)
    with tr.span("replay"):
        with tr.span("fbm.kernel_weights_warm"):
            fbm.kernel_weights(grid, cfg["hurst"])
        _replay_paths(tr, cfg)
        model = lq.lq_model(spec)
        _replay_state(tr, model, sol.u, spec.x0, paths)
        _replay_adjoint(tr, spec, model, sol.u, paths)
    return {"counts": lq_counts(len(sol.iterations), n_rows),
            "hashes": {name: sha256(out / name) for name in written},
            "outcome": {"J": f"{sol.J:.8f}", "converged": sol.converged}}


def trace_verify_suites(tr, cfg_path: Path, out: Path) -> dict:
    """The five suites as cmd_verify calls them, then their layers replayed."""
    import numpy as np
    from fbmcontrol import adjoint, cli, fbm, lq, sde, transforms, verify
    with tr.span("cli.load_config"):
        cfg = cli.load_config(cfg_path)
    T, n_steps, n_paths, seed = cfg["T"], cfg["n_steps"], cfg["n_paths"], cfg["seed"]
    _kernel_cold(tr, [(T, n_steps, cfg["hurst"]), (T, max(256, n_steps), 0.75),
                      *VERIFY_SUITE_GRIDS])
    verdicts = []
    for suite in SUITE_ORDER:
        with tr.span(f"verify.{suite}"):
            checks = verify.run_suite(suite, hurst=cfg["hurst"], n_steps=n_steps,
                                      n_paths=n_paths, seed=seed, T=T,
                                      table_out=out / f"{suite}_table.csv")
        verdicts += [[c.name, c.passed] for c in checks]
    with tr.span("replay"):
        grid = fbm.TimeGrid(T, n_steps)
        with tr.span("fbm.kernel_weights_warm"):
            fbm.kernel_weights(grid, cfg["hurst"])
        with tr.span("fbm.fbm_from_cholesky"):
            fbm.fbm_from_cholesky(grid, cfg["hurst"], 1, n_paths, seed)
        f = transforms.GridFunction.from_callable(
            grid, lambda t: np.sin(2 * np.pi * t))
        with tr.span("transforms.isometry_check"):
            transforms.isometry_check(f, 0.75)
        # the operators suite's transfer check at its middle level (1024 steps)
        with tr.span("replay.transfer_paths"):
            fine = fbm.fbm_from_kernel(
                fbm.generate_bm(fbm.TimeGrid(T, 2048), 1, 4000, seed), 0.75)
            coarse = fbm.coarsen(fine, 2)
        g = transforms.GridFunction.from_callable(
            coarse.grid, lambda t: np.sin(2 * np.pi * t) + t)
        with tr.span("transforms.transfer_check"):
            transforms.transfer_check(g, coarse)
        del fine, coarse
        # the variation suite's finest level: 2048 steps at H 0.95, LQ model
        paths = fbm.fbm_from_kernel(
            fbm.generate_bm(fbm.TimeGrid(T, 2048), 1, n_paths, seed), 0.95)
        spec = lq.LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3)
        u = sde.ControlProcess.constant(0.0)
        lin, phi, psi = _replay_state(tr, lq.lq_model(spec), u, spec.x0, paths)
        v = np.ones((n_paths, paths.grid.n_nodes))
        with tr.span("sde.variation_direct"):
            sde.variation_direct(lin, v, paths)
        with tr.span("sde.variation_explicit"):
            sde.variation_explicit(phi, psi, lin, v, paths)
        del lin, phi, psi, paths, v
        # the bsde suite's q consistency: 512 steps, zero control
        paths = fbm.fbm_from_kernel(
            fbm.generate_bm(fbm.TimeGrid(1.0, 512), 1, n_paths, seed), 0.75)
        spec = lq.LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.0)
        u0 = sde.ControlProcess.from_values(np.zeros((n_paths, paths.grid.n_nodes)))
        prob, est = _replay_adjoint(tr, spec, lq.lq_model(spec), u0, paths)
        with tr.span("adjoint.estimate_q_bump"):
            adjoint.estimate_q_bump(prob, est)
    return {"counts": {"verify.checks_run": len(verdicts)},
            "hashes": {}, "outcome": {"verdicts": verdicts}}


def trace_paths_fine(tr, cfg_path: Path, out: Path) -> dict:
    """cmd_paths' public calls (workers 2), then path generation replayed."""
    from fbmcontrol import cli, fbm
    with tr.span("cli.load_config"):
        cfg = cli.load_config(cfg_path)
    _kernel_cold(tr, [(cfg["T"], cfg["n_steps"], cfg["hurst"])])
    with tr.span("cli.generate_paths"):
        paths = cli.generate_paths(cfg, 2)
    with tr.span("fbm.to_csv"):
        paths.to_csv(out / "paths.csv")
    digest = sha256(out / "paths.csv")
    size = (out / "paths.csv").stat().st_size
    (out / "paths.csv").unlink()
    with tr.span("replay"):
        with tr.span("fbm.kernel_weights_warm"):
            fbm.kernel_weights(paths.grid, cfg["hurst"])
        _replay_paths(tr, cfg)
    return {"counts": {"fbm.to_csv_mb": size / 2 ** 20},
            "hashes": {"paths.csv": digest}, "outcome": {}}


# ---------------------------------------------------------------------------


def lq_counts(n_iterations: int, n_sweep_rows: int | None) -> dict:
    """Exact counts of one solve-lq, from its iteration and sweep-row counts.

    Each Picard sweep integrates the state once, plus a final re-estimate at
    the returned control; the optimality sweep integrates u* once and u* +-
    eps v per row; the convexity check integrates three controls.  These are
    computed from the call structure, not counted inside the package.
    """
    sweeps = n_iterations + 1
    opt_runs = 0 if n_sweep_rows is None else 1 + 2 * n_sweep_rows
    conv_runs = 0 if n_sweep_rows is None else 3
    return {"lq.picard_sweeps": sweeps,
            "lq.optimality_sweep_euler_runs": opt_runs,
            "sde.euler_mixed_calls": sweeps + opt_runs + conv_runs}


def kernel_flops(cfg: dict) -> int:
    """Multiply-adds x 2 of fbm_from_kernel's dense (n+1) x n contraction."""
    return 2 * (cfg["n_steps"] + 1) * cfg["n_steps"] * cfg["n_paths"] * cfg.get("m", 1)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    commands: tuple
    base_config: Callable[[int], dict]
    trace: Callable
    counts_kernel_flops: bool  # fbm_from_kernel at the config size is its work

    def config(self, seed: int, smoke: bool) -> dict:
        cfg = self.base_config(seed)
        if smoke:
            cfg.update(SMOKE)
        return cfg


WORKLOADS = {
    w.name: w for w in (
        Workload("lq-mixed", 202, (("solve-lq",),), lq_mixed_config,
                 trace_lq_mixed, True),
        Workload("verify-suites", 12345,
                 tuple(("verify", s) for s in SUITE_ORDER),
                 verify_suites_config, trace_verify_suites, False),
        Workload("paths-fine", 202, (("paths", "--workers", "2"),),
                 paths_fine_config, trace_paths_fine, True),
    )
}
