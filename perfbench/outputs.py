"""Correctness of one untraced round, read from the commands' own outputs.

Each command's exit code must agree with the verdicts in its summary or
report, and every CSV it wrote is hashed so that rounds of one commit can be
checked for byte identity (README: reruns give byte-identical files).
"""

from __future__ import annotations

import re
from pathlib import Path

from workloads import lq_counts, sha256

# cmd_paths fails a covariance row whose z-score exceeds this; the report
# carries the z values but not the gate.
PATHS_Z_GATE = 4.0


class Round:
    """Checks run and failed, counts, hashes and problems of one round."""

    def __init__(self):
        self.checks_run = 0
        self.checks_failed = 0
        self.verdicts: list[list] = []
        self.counts: dict = {}
        self.hashes: dict = {}
        self.problems: list[str] = []
        self.outcome: dict = {}

    def add(self, name: str, passed: bool) -> None:
        self.checks_run += 1
        self.checks_failed += not passed
        self.verdicts.append([name, passed])


def _body(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def _paths(out: Path, rnd: Round) -> int:
    before = rnd.checks_failed
    for row in _body(out / "covariance_report.csv")[1:]:
        name, value, _se = row.split(",")
        rnd.add(name, float(value) <= PATHS_Z_GATE)
    size = (out / "paths.csv").stat().st_size
    rnd.counts["fbm.to_csv_mb"] = size / 2 ** 20
    return 0 if rnd.checks_failed == before else 1


def _verify(out: Path, suite: str, rnd: Round) -> int:
    before = rnd.checks_failed
    for line in _body(out / f"verify_{suite}_summary.txt"):
        m = re.match(r"(PASS|FAIL) (\S+):", line)
        if m:
            rnd.add(m.group(2), m.group(1) == "PASS")
    return 0 if rnd.checks_failed == before else 1


def _solve_lq(out: Path, rnd: Round) -> int:
    before = rnd.checks_failed
    text = "\n".join(_body(out / "solve_summary.txt"))

    def find(pattern):
        m = re.search(pattern, text, re.M)
        return m.groups() if m else None

    converged = find(r"^converged: (\w+)")[0] == "True"
    rnd.add("converged", converged)
    n_iter = int(find(r"^iterations: (\d+)")[0])
    rnd.outcome["J"] = find(r"^J: (\S+) \+-")[0]
    rnd.outcome["converged"] = converged
    if not converged:
        rnd.counts.update(lq_counts(n_iter, None))
        return 3
    z, tol = map(float, find(r"^stationarity_residual max \|z\|: (\S+) \(tolerance (\S+)\)"))
    rnd.add("stationarity_residual", z <= tol)
    ric = find(r"^riccati_oracle J: .*\|gap\|: (\S+) \(budget (\S+)\)")
    if ric:
        rnd.add("riccati_oracle", float(ric[0]) <= float(ric[1]))
    n_rows, n_bad = map(int, find(r"^optimality_sweep: (\d+) rows, (\d+) violations"))
    for i in range(n_rows):  # the summary counts violations, not which rows
        rnd.add("optimality_sweep_row", i >= n_bad)
    rnd.add("convexity", find(r"^convexity margin: .*\(holds: (\w+)\)")[0] == "True")
    rnd.counts.update(lq_counts(n_iter, n_rows))
    return 0 if rnd.checks_failed == before else 1


def inspect(commands, exit_codes, out: Path) -> Round:
    """Read every command's verdicts; flag exit codes that disagree with them."""
    rnd = Round()
    for argv, code in zip(commands, exit_codes):
        try:
            if argv[0] == "paths":
                expected = _paths(out, rnd)
            elif argv[0] == "verify":
                expected = _verify(out, argv[1], rnd)
            else:
                expected = _solve_lq(out, rnd)
        except (OSError, TypeError, ValueError) as exc:
            rnd.problems.append(f"{' '.join(argv)}: unreadable output ({exc!r})")
            continue
        if code != expected:
            rnd.problems.append(f"{' '.join(argv)}: exit code {code}, "
                                f"outputs imply {expected}")
    if any(a[0] == "verify" for a in commands):
        rnd.counts["verify.checks_run"] = rnd.checks_run
    rnd.hashes = {p.name: sha256(p) for p in sorted(out.glob("*.csv"))}
    return rnd
