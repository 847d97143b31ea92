"""Command-line front end: path generation, verification suites, LQ solver.

Configs are flat JSON files; coefficient entries are numbers (constants) or
named catalog functions, e.g. {"kind": "sin", "a": 0.5, "b": 0.2, "omega": 1.0}.
Exit codes: 0 pass, 1 check failure or numerical failure (blow-up, failed
regression or factorization, arithmetic fault), 2 usage or an output that
cannot be written, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adjoint import stationarity_residual, bsde_residual
from .errors import (BlowupError, DomainError, FactorizationError,
                     RegressionError)
from .fbm import Hurst, PathSet, TimeGrid, fbm_from_kernel, generate_bm
from .lq import (LqSpec, PicardOptions, convexity_check, lq_picard_solve,
                 optimality_sweep, riccati_oracle, random_adapted_directions)
from .sde import ControlProcess
from .verify import (IGNORED_CONFIG, CheckResult, kernel_terminal_variance,
                     ran_at, riccati_agreement, run_suite, stationarity,
                     suite_names)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

# integer kinds: name -> (least allowed value, least value above the range)
# (seed + 1 must still key a substream, so seeds stop one below 2^63)
INT_KINDS = {"pos_int": (1, None), "path_count": (2, None), "seed": (0, 2 ** 63 - 1)}

# flat schema: name -> (kind, default); kind in INT_KINDS or {str, float,
# pos_float, unit_float, hurst, float_list, coef}
CONFIG_SCHEMA = {
    "experiment": ("str", "run"),
    "hurst": ("hurst", 0.75),
    "T": ("pos_float", 1.0),
    "n_steps": ("pos_int", 256),
    "n_paths": ("path_count", 10000),  # a standard error needs two paths
    "seed": ("seed", 12345),
    "m": ("pos_int", 1),
    "A": ("coef", -1.0),
    "A_tilde": ("coef", 1.0),
    "M": ("coef", 0.2),
    "M_tilde": ("coef", 0.0),
    "N": ("coef", 0.0),
    "Q": ("coef", 1.0),
    "R": ("coef", 1.0),
    "G": ("pos_float", 1.0),
    "x0": ("float", 1.0),
    "theta": ("unit_float", 0.5),
    "tol": ("pos_float", 1e-3),
    "max_iter": ("pos_int", 50),
    "eps_list": ("float_list", [0.05, 0.1, 0.2]),
    "n_directions": ("pos_int", 8),
    "u0": ("float", 0.0),
}

COEF_CATALOG = {
    "const": (("value",), lambda p: (lambda t: p["value"])),
    "affine": (("a", "b"), lambda p: (lambda t: p["a"] + p["b"] * t)),
    "sin": (("a", "b", "omega", "phase"),
            lambda p: (lambda t: p["a"] + p["b"] * np.sin(p["omega"] * t + p["phase"]))),
    "cos": (("a", "b", "omega", "phase"),
            lambda p: (lambda t: p["a"] + p["b"] * np.cos(p["omega"] * t + p["phase"]))),
}


class ConfigError(ValueError):
    pass


def _number(raw) -> float:
    """A finite float; JSON true/false are not numbers here."""
    if isinstance(raw, bool):
        raise ConfigError(f"expected a number, got {json.dumps(raw)}")
    v = float(raw)
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {raw}")
    return v


def _validate_field(name, kind, raw):
    try:
        if kind == "str":
            if not isinstance(raw, str):
                raise ConfigError(f"{name} must be a string")
            return raw
        if kind in INT_KINDS:
            lo, hi = INT_KINDS[kind]
            _number(raw)  # refuses bools, non-numbers and inf
            v = int(raw)
            if v != raw or v < lo or (hi is not None and v >= hi):
                allowed = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
                raise ConfigError(f"{name} must be an integer {allowed}, got {raw!r}")
            return v
        if kind == "float":
            return _number(raw)
        if kind == "pos_float":
            v = _number(raw)
            if not v > 0:
                raise ConfigError(f"{name} must be positive, got {raw}")
            return v
        if kind == "unit_float":
            v = _number(raw)
            if not 0 < v <= 1:
                raise ConfigError(f"{name} must lie in (0, 1], got {raw}")
            return v
        if kind == "hurst":
            v = _number(raw)
            Hurst(v)  # raises DomainError outside (1/2, 1)
            return v
        if kind == "float_list":
            if not isinstance(raw, (list, tuple)) or not raw:
                raise ConfigError(f"{name} must be a non-empty list of numbers")
            return [_number(x) for x in raw]
        if kind == "coef":
            if isinstance(raw, (int, float)):
                return _number(raw)
            if isinstance(raw, dict):
                k = raw.get("kind")
                if k not in COEF_CATALOG:
                    raise ConfigError(
                        f"{name}: unknown coefficient kind {k!r}; "
                        f"catalog: {sorted(COEF_CATALOG)}")
                params, _builder = COEF_CATALOG[k]
                missing = [p for p in params if p not in raw]
                if missing:
                    raise ConfigError(f"{name}: missing parameters {missing} for kind {k!r}")
                return {key: (raw[key] if key == "kind" else _number(raw[key]))
                        for key in ("kind", *params)}
            raise ConfigError(f"{name} must be a number or a catalog object")
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc
    raise ConfigError(f"unknown schema kind {kind}")


def load_config(path) -> dict:
    """Parse and schema-validate a flat JSON config; defaults filled in."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config fields: {unknown}")
    cfg = {}
    for name, (kind, default) in CONFIG_SCHEMA.items():
        cfg[name] = _validate_field(name, kind, raw[name]) if name in raw else default
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _coef_fn(entry):
    if isinstance(entry, dict):
        params, builder = COEF_CATALOG[entry["kind"]]
        return builder(entry)
    return float(entry)


def lq_spec_from_config(cfg: dict) -> LqSpec:
    return LqSpec(A=_coef_fn(cfg["A"]), A_tilde=_coef_fn(cfg["A_tilde"]),
                  M=_coef_fn(cfg["M"]), M_tilde=_coef_fn(cfg["M_tilde"]),
                  N=_coef_fn(cfg["N"]), Q=_coef_fn(cfg["Q"]),
                  R=_coef_fn(cfg["R"]), G=cfg["G"], x0=cfg["x0"], T=cfg["T"])


def generate_paths(cfg: dict, workers: int = 1) -> PathSet:
    """Config-driven coupled path bundle; identical for any worker count."""
    grid = TimeGrid(cfg["T"], cfg["n_steps"])
    bm = generate_bm(grid, cfg["m"], cfg["n_paths"], cfg["seed"], workers)
    return fbm_from_kernel(bm, Hurst(cfg["hurst"]))


def _report_header(cfg: dict, suite: str | None = None, checks=()) -> list[str]:
    """Five header lines.  A verify suite states the bundles and grids its
    checks ran on and the path fields of the config it does not read, where
    the other commands echo the config's grid."""
    if suite is None:
        run = [f"# grid: T={cfg['T']} n_steps={cfg['n_steps']}",
               f"# n_paths: {cfg['n_paths']}  hurst: {cfg['hurst']}"]
    else:
        run = [f"# ran_at: {'; '.join(ran_at(checks)) or 'no check finished'}",
               f"# ignored_config: {', '.join(IGNORED_CONFIG[suite]) or 'none'}"]
    return [f"# config_hash: {config_hash(cfg)}",
            f"# seed: {cfg['seed']}",
            *run,
            f"# resolved_config: {json.dumps(cfg, sort_keys=True)}"]


def _write_summary(path: Path, header, lines) -> None:
    """Header lines, then body lines: a summary or a checks CSV."""
    with open(path, "w", newline="") as fh:
        for line in header:
            fh.write(line + "\n")
        for line in lines:
            fh.write(line + "\n")


@dataclass
class Progress:
    """Stage of the running command and the summary it has started.

    A numerical failure is reported against ``stage``; ``summary`` is then
    written under ``header`` with ``lines`` so far and the failure.
    """

    stage: str = "setup"
    summary: Path | None = None
    header: list = field(default_factory=list)
    lines: list = field(default_factory=list)


def _check_lines(checks) -> list[str]:
    """One PASS/FAIL line per check, as the summaries list them."""
    return [f"{'PASS' if c.passed else 'FAIL'} {c.name}: value={c.value:.6g} "
            f"tol={c.tolerance:.6g} {c.detail}" for c in checks]


def cmd_paths(cfg: dict, out: Path, workers: int, run: Progress) -> int:
    run.stage = "paths"
    run.summary = out / "paths_summary.txt"
    run.header = _report_header(cfg)
    paths = generate_paths(cfg, workers)
    paths.to_csv(out / "paths.csv", workers)
    # covariance validation on the generated bundle
    inc_var = float(paths.dB.var(ddof=1)) * cfg["n_steps"] / cfg["T"]
    z_inc = abs(inc_var - 1.0) / np.sqrt(2.0 / (paths.n_paths * cfg["n_steps"]))
    checks = kernel_terminal_variance(paths, "bh_terminal_variance_z")
    checks.append(CheckResult("bm_increment_variance_z", z_inc, 0.0, 4.0,
                              z_inc <= 4.0))
    _write_summary(out / "covariance_report.csv", run.header,
                   ["name,value,stderr", *(c.row() for c in checks)])
    _write_summary(run.summary, run.header, _check_lines(checks))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILURE


def cmd_verify(cfg: dict, suite: str, out: Path, run: Progress) -> int:
    run.stage = f"verify {suite}"
    run.summary = out / f"verify_{suite}_summary.txt"
    run.header = _report_header(cfg, suite)
    checks = run_suite(suite, hurst=cfg["hurst"], n_steps=cfg["n_steps"],
                       n_paths=cfg["n_paths"], seed=cfg["seed"], T=cfg["T"],
                       table_out=out / f"{suite}_table.csv")
    run.header = _report_header(cfg, suite, checks)
    _write_summary(out / f"verify_{suite}.csv", run.header,
                   ["name,value,stderr", *(c.row() for c in checks)])
    lines = _check_lines(checks)
    _write_summary(run.summary, run.header, lines)
    for line in lines:
        print(line)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILURE


def cmd_solve_lq(cfg: dict, out: Path, workers: int, run: Progress) -> int:
    if cfg["m"] > 2:
        print(f"config error: solve-lq takes m = 1, or m = 2 for an independent "
              f"Brownian motion, got m = {cfg['m']}", file=sys.stderr)
        return EXIT_USAGE
    spec = lq_spec_from_config(cfg)
    grid = TimeGrid(cfg["T"], cfg["n_steps"])
    try:
        spec.validate_on(grid)
    except DomainError as exc:
        print(f"config violates the LQ invariants: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    run.summary = out / "solve_summary.txt"
    run.header = _report_header(cfg)
    lines = run.lines
    run.stage = "paths"
    paths = generate_paths(cfg, workers)
    options = PicardOptions(theta=cfg["theta"], tol=cfg["tol"],
                            max_iter=cfg["max_iter"], u0=cfg["u0"])
    run.stage = "picard"
    sol = lq_picard_solve(spec, paths, options)
    lines += [f"converged: {sol.converged}",
              f"iterations: {len(sol.iterations)}",
              f"theta: {cfg['theta']}  tol: {cfg['tol']}  max_iter: {cfg['max_iter']}",
              f"J: {sol.J:.8f} +- {sol.J_stderr:.8f}"]
    for row in sol.iterations:
        lines.append(f"iter {row['iter']}: control_change={row['change']:.6e} "
                     f"J={row['J']:.8f} +- {row['J_stderr']:.2e}")

    # control and adjoint exports (control capped to the first 200 paths)
    n_dump = min(sol.u.values.shape[0], 200)
    with open(out / "control.csv", "w", newline="") as fh:
        fh.write(f"# first {n_dump} paths\n")
        fh.write("path,node,t,u\n")
        node_t = [f"{k},{t:.17g}," for k, t in enumerate(grid.nodes.tolist())]
        for p, u in enumerate(sol.u.values[:n_dump].tolist()):
            fh.write("".join([f"{p},{kt}{x:.17g}\n" for kt, x in zip(node_t, u)]))
    # q of the driver the control acts through (W when m = 2)
    sol.estimate.to_csv(out / "adjoint.csv", paths.m - 1)

    exit_code = EXIT_OK
    if not sol.converged:
        lines.append("NON-CONVERGENCE: control change above tol at max_iter")
        _write_summary(run.summary, run.header, lines)
        return EXIT_NO_CONVERGENCE

    run.stage = "residuals"
    res = stationarity_residual(sol.problem, sol.estimate)
    res.to_csv(out / "stationarity_residual.csv")
    check = stationarity(res)
    lines.append(f"stationarity_residual max |z|: {check.value:.3f} "
                 f"(tolerance {check.tolerance:g})")
    if not check.passed:
        exit_code = EXIT_CHECK_FAILURE

    bs = bsde_residual(sol.problem, sol.estimate)
    bs.to_csv(out / "bsde_residual.csv")
    lines.append(f"bsde_residual mean_sq (avg): {bs.mean_sq.mean():.3e}")

    if spec.is_brownian_only(grid):
        run.stage = "riccati"
        ric = riccati_oracle(spec, grid)
        check = riccati_agreement(sol.J, sol.J_stderr, ric.J)
        lines.append(f"riccati_oracle J: {ric.J:.8f}  |gap|: {check.value:.3e} "
                     f"(budget {check.tolerance:.3e})")
        if not check.passed:
            exit_code = EXIT_CHECK_FAILURE

    # the checks below need the control and its state alone: the rest of
    # the solve's per-path problem and estimate goes before they build
    # their own arrays
    u_star, x_star = sol.u, sol.problem.x
    del sol
    run.stage = "optimality_sweep"
    directions = random_adapted_directions(paths, cfg["n_directions"],
                                           cfg["seed"] + 99)
    rows = optimality_sweep(spec, u_star, directions, cfg["eps_list"], paths,
                            x_star)
    n_bad = sum((not r.diff_ok()) or (not r.deriv_ok()) for r in rows)
    lines.append(f"optimality_sweep: {len(rows)} rows, {n_bad} violations")
    with open(out / "optimality_sweep.csv", "w", newline="") as fh:
        fh.write("direction,eps,dJ,dJ_stderr,deriv,deriv_stderr\n")
        for r in rows:
            fh.write(f"{r.direction},{r.eps:.17g},{r.dJ:.17g},{r.dJ_stderr:.17g},"
                     f"{r.deriv:.17g},{r.deriv_stderr:.17g}\n")
    if n_bad:
        exit_code = EXIT_CHECK_FAILURE

    run.stage = "convexity"
    conv = convexity_check(spec, u_star,
                           ControlProcess.from_values(u_star.values + 0.5),
                           paths, x_star)
    lines.append(f"convexity margin: {conv.margin_mean:.6e} "
                 f"+- {conv.margin_stderr:.2e} (holds: {conv.holds()})")
    if not conv.holds():
        exit_code = EXIT_CHECK_FAILURE

    _write_summary(run.summary, run.header, lines)
    for line in lines:
        print(line)
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbmcontrol",
        description="Mixed fractional Brownian control: paths, verification "
                    "suites, and the linear-quadratic solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, workers=True):
        p.add_argument("--config", required=True, help="flat JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="worker count (results are independent of it)")

    add_common(sub.add_parser("paths", help="generate coupled B/B^H paths"))
    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", choices=suite_names())
    add_common(pv, workers=False)  # the suites run in one process
    add_common(sub.add_parser("solve-lq", help="solve the LQ problem end to end"))

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code) if exc.code else 0

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if getattr(args, "workers", 1) < 1:
        print("workers must be >= 1", file=sys.stderr)
        return EXIT_USAGE

    out = Path(args.out)
    run = Progress()
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "paths":
            return cmd_paths(cfg, out, args.workers, run)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, out, run)
        if args.command == "solve-lq":
            return cmd_solve_lq(cfg, out, args.workers, run)
    except (BlowupError, RegressionError, FactorizationError,
            ArithmeticError) as exc:
        failure = f"FAILED in stage {run.stage}: {type(exc).__name__}: {exc}"
        print(f"{args.command} {failure}", file=sys.stderr)
        if run.summary is not None:
            _write_summary(run.summary, run.header, [*run.lines, failure])
        return EXIT_CHECK_FAILURE
    except OSError as exc:  # an output that cannot be made or written
        print(f"{args.command} FAILED in stage {run.stage}: cannot write "
              f"to {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
