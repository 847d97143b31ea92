"""Benchmark of fbmcontrol: three workloads through the public CLI.

    python3 perfbench/run.py --workload {lq-mixed,verify-suites,paths-fine}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout; the package is imported from ``src/``.
Every round of a workload is a fresh interpreter (perfbench/child.py) so the
kernel-weight cache starts cold, as it does for every CLI user; rounds run
one after another (a closed loop with one client).

Untraced rounds repeat until ``--seconds`` have passed.  ``--trace 0``
reports the end-to-end metrics as medians over those rounds, plus set-up
time as the median over at least five interpreter starts.  ``--trace 1``
then runs one traced round and reports the per-layer metrics, tracing
overhead and span coverage against the untraced median.  Metric names and
units come from BENCHMARK.json at the root.  The last line of standard
output is the result object; the line before it records the environment.
Spans, per-round data and logs are kept under ``.perfbench_out/``.
``--smoke`` shrinks paths and steps for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from outputs import inspect
from tracer import peak, total
from workloads import WORKLOADS, kernel_flops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# spans whose summed duration is a per-layer metric "<name>_s"
TIMED_SPANS = (
    "cli.load_config", "cli.generate_paths", "cli.report_csv",
    "fbm.kernel_weights_cold", "fbm.kernel_weights_warm", "fbm.generate_bm",
    "fbm.fbm_from_kernel", "fbm.fbm_from_cholesky", "fbm.to_csv",
    "rng.normal_block", "transforms.isometry_check", "transforms.transfer_check",
    "sde.euler_mixed", "sde.linearize", "sde.fundamental_phi",
    "sde.fundamental_psi", "sde.variation_direct", "sde.variation_explicit",
    "adjoint.adjoint_problem", "adjoint.estimate_p", "adjoint.estimate_q_formula",
    "adjoint.estimate_q_bump", "adjoint.residuals",
    "lq.picard_solve", "lq.optimality_sweep", "lq.convexity_check",
    *(f"verify.{s}" for s in ("covariance", "operators", "variation", "lemma1", "bsde")),
)
# per-layer metric -> span carrying its tracemalloc peak
PEAK_SPANS = {
    "fbm.kernel_weights_peak_mb": "fbm.kernel_weights_cold",
    "sde.linearize_peak_mb": "mem.sde.linearize",
    "adjoint.adjoint_problem_peak_mb": "mem.adjoint.adjoint_problem",
    "adjoint.estimate_p_peak_mb": "mem.adjoint.estimate_p",
}
# counts that must repeat exactly across runs of one commit
EXACT_COUNTS = ("lq.picard_sweeps", "sde.euler_mixed_calls",
                "lq.optimality_sweep_euler_runs", "verify.checks_run",
                "fbm.to_csv_mb")


class BenchError(RuntimeError):
    pass


def source_hash() -> str:
    """Digest of the package sources: identifies "one commit" without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


class Runner:
    """Starts the child rounds of one run, one process at a time."""

    def __init__(self, workload, run_dir: Path, run_id: str):
        self.workload = workload
        self.run_dir = run_dir
        self.run_id = run_id
        self.config = run_dir / "config.json"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([path] if path else [])))

    def spawn(self, mode: str, tag: str) -> dict:
        result = self.run_dir / f"{tag}.json"
        log = self.run_dir / f"{tag}.log"
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", self.workload.name, "--config", str(self.config),
               "--out", str(self.run_dir / tag), "--result", str(result),
               "--run-id", self.run_id, "--t0"]
        with open(log, "w") as fh:
            try:
                t0 = time.monotonic()
                proc = subprocess.run(cmd + [repr(t0)], cwd=ROOT, env=self.env,
                                      stdout=fh, stderr=subprocess.STDOUT,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{tag}: no result after {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"{tag} exited {proc.returncode}; "
                             f"log tail:\n{log.read_text()[-3000:]}")
        res = json.loads(result.read_text())
        if not Path(res["package"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"{tag} imported fbmcontrol from {res['package']}")
        return res

    def untraced_round(self, tag: str):
        res = self.spawn("run", tag)
        rnd = inspect(self.workload.commands, res["exit_codes"], self.run_dir / tag)
        shutil.rmtree(self.run_dir / tag)
        return res, rnd


def load_ledger(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def save_ledger(path: Path, ledger: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(path)


def judge(workload, cfg: dict, rounds, traced: dict | None):
    """Checks attempted and failed, and the problems that make a run incorrect.

    Every round adds its commands' checks plus one byte-identity check of
    its CSVs: against the first round, and the first round against the
    first run of the same sources, config and workload (kept in a ledger).
    """
    problems, identity_failures = [], 0
    first = rounds[0][1]
    for i, (_res, rnd) in enumerate(rounds):
        problems += [f"round {i}: {p}" for p in rnd.problems]
        if i and rnd.hashes != first.hashes:
            identity_failures += 1
            problems.append(f"round {i}: CSV bytes differ from round 0")
        if i and rnd.counts != first.counts:
            problems.append(f"round {i}: exact counts {rnd.counts} != {first.counts}")
    ledger_path = OUT / "ledger.json"
    ledger = load_ledger(ledger_path)
    key = hashlib.sha256(json.dumps([source_hash(), workload.name, cfg],
                                    sort_keys=True).encode()).hexdigest()
    entry = ledger.get(key)
    if entry is None:
        ledger[key] = {"workload": workload.name, "seed": cfg["seed"],
                       "hashes": first.hashes, "counts": first.counts}
        save_ledger(ledger_path, ledger)
    else:
        if entry["hashes"] != first.hashes:
            identity_failures += 1
            problems.append("CSV bytes differ from the first run of these sources")
        for name in EXACT_COUNTS:
            if entry["counts"].get(name) != first.counts.get(name):
                problems.append(f"exact count {name}: {first.counts.get(name)} "
                                f"here, {entry['counts'].get(name)} in the first run")
    if traced is not None:
        for name, value in traced["counts"].items():
            if first.counts.get(name) != value:
                problems.append(f"traced {name} = {value}, untraced {first.counts.get(name)}")
        for name, digest in traced["hashes"].items():
            if first.hashes.get(name) != digest:
                problems.append(f"traced {name} differs from the CLI's")
        outcome = traced["outcome"]
        if "verdicts" in outcome and outcome["verdicts"] != first.verdicts:
            problems.append("traced suite verdicts differ from the CLI's")
        for k in ("J", "converged"):
            if k in outcome and outcome[k] != first.outcome.get(k):
                problems.append(f"traced {k} {outcome[k]} != CLI {first.outcome.get(k)}")
    attempted = sum(rnd.checks_run + 1 for _res, rnd in rounds)
    failed = sum(rnd.checks_failed for _res, rnd in rounds) + identity_failures
    return attempted, failed, problems


def layer_values(workload, cfg, traced, untraced_run_s, first, ratio) -> dict:
    recs = traced["spans"]
    values = {f"{name}_s": total(recs, name) for name in TIMED_SPANS}
    values.update({metric: peak(recs, span) for metric, span in PEAK_SPANS.items()})
    counts = first.counts
    sweeps = counts.get("lq.picard_sweeps", 0)
    values["lq.picard_sweeps"] = sweeps
    values["lq.picard_sweep_s"] = values["lq.picard_solve_s"] / sweeps if sweeps else 0.0
    for name in ("lq.optimality_sweep_euler_runs", "sde.euler_mixed_calls",
                 "verify.checks_run", "fbm.to_csv_mb"):
        values[name] = counts.get(name, 0)
    values["verify.checks_failed"] = (first.checks_failed
                                      if "verify.checks_run" in counts else 0)
    flops = kernel_flops(cfg) if workload.counts_kernel_flops else 0
    t = values["fbm.fbm_from_kernel_s"]
    values["fbm.fbm_from_kernel_flops"] = flops
    values["fbm.fbm_from_kernel_gflops"] = flops / t / 1e9 if flops and t else 0.0
    top = [r for r in recs if r["parent"] is None and r["name"] != "replay"]
    values["trace.coverage"] = sum(r["duration"] for r in top) / untraced_run_s
    values["trace.overhead_s"] = (traced["run_s"] - total(recs, "replay")) - untraced_run_s
    values["trace.traced_run_s"] = traced["run_s"] - total(recs, "replay")
    values["check_fail_ratio"] = ratio
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="config seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="200 paths x 32 steps where the config sets them")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fbmcontrol" / "cli.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    cfg = workload.config(seed, args.smoke)
    run_id = f"{workload.name}-s{seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = OUT / "runs" / run_id
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(cfg, sort_keys=True))
    runner = Runner(workload, run_dir, run_id)

    rounds, traced, setups = [], None, []
    try:
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(runner.untraced_round(f"round{len(rounds)}"))
        if args.trace:
            traced = runner.spawn("trace", "traced")
            shutil.rmtree(run_dir / "traced", ignore_errors=True)
        else:
            setups = [res["setup_s"] for res, _rnd in rounds]
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.spawn("setup", f"setup{len(setups)}")["setup_s"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = judge(workload, cfg, rounds, traced)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    first = rounds[0][1]
    med = lambda key: statistics.median(res[key] for res, _rnd in rounds)
    if args.trace:
        values = layer_values(workload, cfg, traced, med("run_s"), first,
                              failed / attempted)
        metrics = spec["per_layer"]
        trace_path = OUT / "traces" / f"{run_id}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as fh:
            for rec in traced["spans"]:
                fh.write(json.dumps(rec) + "\n")
    else:
        values = {"setup_s": statistics.median(setups), "run_s": med("run_s"),
                  "cpu_s": med("cpu_s"), "peak_rss_mb": med("peak_rss_mib")}
        metrics = spec["end_to_end"]

    env = {"git_sha": git_sha(), "source_sha256": source_hash(),
           **rounds[0][0]["versions"], "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                        if k.endswith("_NUM_THREADS")},
           "platform": platform.platform(), "workload": workload.name,
           "seed": seed, "smoke": args.smoke, "rounds": len(rounds),
           "setup_samples": len(setups)}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics}}
    (run_dir / "result.json").write_text(json.dumps(
        {"env": env, "config": cfg, "result": result, "problems": problems,
         "setups": setups,
         "failed_checks": [[n for n, ok in r.verdicts if not ok] for _res, r in rounds],
         "rounds": [res for res, _rnd in rounds]}, indent=1))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
