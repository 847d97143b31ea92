"""CLI wiring: config schema, subcommands, exit codes, determinism."""

import errno
import json
import os
import warnings

import numpy as np
import pytest

from fbmcontrol import fbm
from fbmcontrol.cli import (EXIT_CHECK_FAILURE, EXIT_NO_CONVERGENCE, EXIT_OK,
                            EXIT_USAGE, ConfigError, config_hash, generate_paths,
                            load_config, lq_spec_from_config, main)
from fbmcontrol.lq import PicardOptions, lq_picard_solve
from fbmcontrol.verify import kernel_terminal_variance, run_suite


def write_config(tmp_path, **overrides):
    cfg = {"experiment": "cli-test", "n_paths": 300, "n_steps": 64,
           "seed": 7, "tol": 1e-4}
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


class TestConfigSchema:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg["hurst"] == 0.75
        assert cfg["theta"] == 0.5
        assert cfg["eps_list"] == [0.05, 0.1, 0.2]

    def test_hurst_invariant(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, hurst=0.4))

    def test_unknown_field_rejected(self, tmp_path):
        # basis_degree was once accepted and silently ignored by solve-lq
        for field in ("bogus", "basis_degree"):
            with pytest.raises(ConfigError):
                load_config(write_config(tmp_path, **{field: 3}))

    def test_coefficient_catalog(self, tmp_path):
        p = write_config(tmp_path, A={"kind": "sin", "a": -1.0, "b": 0.2,
                                      "omega": 2.0, "phase": 0.0})
        cfg = load_config(p)
        assert cfg["A"]["kind"] == "sin"

    def test_unknown_coefficient_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, A={"kind": "tanh", "a": 1.0}))

    @pytest.mark.parametrize("field,value", [
        ("n_paths", 1),        # no standard error from one path
        ("n_paths", True),     # JSON true is not a count
        ("seed", 1e30),        # beyond the substream key range
        ("x0", True),
    ])
    def test_bad_value_exits_usage(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **{field: value})
        rc = main(["solve-lq", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.count("\n") == 1 and field in err

    def test_hash_is_stable(self, tmp_path):
        a = load_config(write_config(tmp_path))
        b = load_config(write_config(tmp_path))
        assert config_hash(a) == config_hash(b)


class TestPathsCommand:
    def test_generates_files_and_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["paths", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "paths.csv").exists()
        report = (out / "covariance_report.csv").read_text()
        assert "# config_hash:" in report
        assert "# seed: 7" in report

    @staticmethod
    def report_names(out):
        rows = (out / "covariance_report.csv").read_text().splitlines()
        return [r.split(",")[0] for r in rows if not r.startswith("#")][1:]

    def test_one_driver_report_rows(self, tmp_path):
        out = tmp_path / "out"
        main(["paths", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert self.report_names(out) == ["bh_terminal_variance_z",
                                          "bm_increment_variance_z"]

    def test_two_drivers_each_checked(self, tmp_path):
        cfg = write_config(tmp_path, m=2)
        out = tmp_path / "out"
        assert main(["paths", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert self.report_names(out) == ["bh_terminal_variance_z_dim0",
                                          "bh_terminal_variance_z_dim1",
                                          "bm_increment_variance_z"]
        # a wrong second driver is caught by the check the command runs
        paths = generate_paths(load_config(cfg))
        bad = paths.with_bh(paths.hurst, paths.BH * [[1.0], [1.5]])
        first, second = kernel_terminal_variance(bad)
        assert first.passed and not second.passed

    def test_bad_hurst_exits_nonzero(self, tmp_path):
        cfg = write_config(tmp_path, hurst=0.4)
        assert main(["paths", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["paths", "--config", str(cfg), "--out", str(out1)])
        main(["paths", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()

    def test_worker_count_irrelevant(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        main(["paths", "--config", str(cfg), "--out", str(out1), "--workers", "1"])
        main(["paths", "--config", str(cfg), "--out", str(out4), "--workers", "4"])
        assert (out1 / "paths.csv").read_bytes() == (out4 / "paths.csv").read_bytes()

    def test_summary_lists_each_check(self, tmp_path):
        out = tmp_path / "out"
        main(["paths", "--config", str(write_config(tmp_path)), "--out", str(out)])
        header = (out / "covariance_report.csv").read_text().splitlines()[:5]
        lines = (out / "paths_summary.txt").read_text().splitlines()
        assert lines[:5] == header
        assert [ln.split(":")[0] for ln in lines[5:]] == [
            "PASS bh_terminal_variance_z", "PASS bm_increment_variance_z"]

    def test_numerical_failure_ends_the_summary(self, tmp_path, capsys):
        # T^{2H} overflows in the variance check, after paths.csv is written
        cfg = write_config(tmp_path, T=1e300, n_paths=50, n_steps=16)
        out = tmp_path / "out"
        assert main(["paths", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_CHECK_FAILURE
        capsys.readouterr()
        lines = (out / "paths_summary.txt").read_text().splitlines()
        assert lines[0].startswith("# config_hash:") and len(lines) == 6
        assert lines[5].startswith("FAILED in stage paths: OverflowError")

    def test_unwritable_output_exits_usage(self, tmp_path, capsys):
        # --out naming a file, and a paths.csv that is a directory
        cfg = write_config(tmp_path, n_paths=4, n_steps=8)
        taken = tmp_path / "taken"
        taken.write_text("")
        blocked = tmp_path / "blocked"
        (blocked / "paths.csv").mkdir(parents=True)
        for out, named in ((taken, taken), (blocked, blocked / "paths.csv")):
            assert main(["paths", "--config", str(cfg), "--out", str(out)]) \
                == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and str(named) in err
            assert "Traceback" not in err

    def test_failed_writer_child_exits_usage(self, tmp_path, monkeypatch,
                                             capsys):
        # the forked writer of the second block finds the disk full
        def open_failing_on_fd(file, *args, **kwargs):
            if isinstance(file, int):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(fbm, "_kernel_threads", lambda: 2)
        monkeypatch.setattr(fbm, "open", open_failing_on_fd, raising=False)
        cfg = write_config(tmp_path, n_paths=4, n_steps=8)
        out = tmp_path / "out"
        assert main(["paths", "--config", str(cfg), "--out", str(out),
                     "--workers", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out / "paths.csv") in err
        assert os.strerror(errno.ENOSPC) in err


class TestVerifyCommand:
    def test_unknown_suite_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["verify", "nosuite", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        capsys.readouterr()

    def test_workers_rejected(self, tmp_path, capsys):
        # the suites run in one process, so --workers would do nothing
        cfg = write_config(tmp_path)
        rc = main(["verify", "covariance", "--config", str(cfg),
                   "--out", str(tmp_path / "o"), "--workers", "2"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert "--workers" in err and "Traceback" not in err

    def test_misspelt_suite_keyword_raises(self):
        with pytest.raises(TypeError):
            run_suite("covariance", n_path=10)

    @staticmethod
    def headers(out, suite):
        """Header lines of the suite's CSV and summary, which must agree."""
        csv = [ln for ln in (out / f"verify_{suite}.csv").read_text().splitlines()
               if ln.startswith("#")]
        summary = (out / f"verify_{suite}_summary.txt").read_text().splitlines()
        assert summary[:len(csv)] == csv
        return csv

    # config fields these suites do not read, away from their fixed values
    UNREAD = dict(hurst=0.6, T=2.0, n_steps=64, n_paths=300)

    def test_bsde_header_states_what_ran(self, tmp_path, capsys):
        out = tmp_path / "o"
        main(["verify", "bsde", "--config",
              str(write_config(tmp_path, **self.UNREAD)), "--out", str(out)])
        capsys.readouterr()
        header = self.headers(out, "bsde")
        assert not any(ln.startswith("# grid:") or "hurst: 0.6" in ln
                       for ln in header)
        ran = header[2]
        assert ran.startswith("# ran_at: ")
        assert "kernel paths T=1.0 n_steps=512 n_paths=300 m=1 H=0.75 seed=7" in ran
        assert "kernel paths T=1.0 n_steps=128/256 n_paths=300 m=1 H=0.75 seed=8" in ran
        assert "T=2.0" not in ran and "n_steps=64" not in ran
        assert header[3] == "# ignored_config: T, hurst, n_steps, m"

    def test_operators_header_states_what_ran(self, tmp_path, capsys):
        out = tmp_path / "o"
        main(["verify", "operators", "--config",
              str(write_config(tmp_path, **self.UNREAD)), "--out", str(out)])
        capsys.readouterr()
        header = self.headers(out, "operators")
        ran = header[2]
        assert "grid T=2.0 n_steps=64 H=0.6/0.75/0.9" in ran
        assert ("kernel paths T=2.0 n_steps=512/1024/2048 n_paths=4000 m=1 "
                "H=0.75 seed=7") in ran
        assert "n_paths=300" not in ran
        assert header[3] == "# ignored_config: hurst, n_paths, m"

    def test_lemma1_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_paths=4000, n_steps=128)
        out = tmp_path / "o"
        rc = main(["verify", "lemma1", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, captured.out
        text = (out / "verify_lemma1.csv").read_text()
        assert text.splitlines()[5] == "name,value,stderr"
        assert "PASS" in captured.out

    def test_lemma1_degenerate_horizon_fails_its_checks(self, tmp_path, capsys):
        # at T = 1e-300 every expansion error underflows to 0 and the
        # alpha-norm weights overflow: each check fails and says why
        cfg = write_config(tmp_path, T=1e-300, n_paths=50, n_steps=16)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["verify", "lemma1", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_CHECK_FAILURE
        assert captured.err == ""
        lines = (out / "verify_lemma1_summary.txt").read_text().splitlines()[5:]
        assert [ln.split(":")[0] for ln in lines] == [
            "FAIL lemma1_terminal_sq", "FAIL lemma1_sup_sq",
            "FAIL lemma1_alpha_norm_sq"]
        assert lines[0].endswith("a level is 0")
        assert lines[2].endswith("a level is not finite")

    @pytest.mark.parametrize("n_steps", [1, 2, 3])
    def test_covariance_on_one_to_three_steps(self, tmp_path, capsys, n_steps):
        # n_steps // 4 == 0 puts a probe at node 0, where B^H = 0 on every path
        cfg = write_config(tmp_path, n_steps=n_steps, n_paths=50)
        out = tmp_path / "o"
        rc = main(["verify", "covariance", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_CHECK_FAILURE)
        assert "Traceback" not in err
        summary = (out / "verify_covariance_summary.txt").read_text()
        assert f"PASS cholesky_cov_0_{n_steps}: value=0 " in summary


class TestArithmeticFaults:
    """An arithmetic fault ends like a numerical failure: exit 1, one
    FAILED line naming the stage, no traceback."""

    @pytest.mark.parametrize("command,T,fault,summary", [
        (["verify", "covariance"], 1e300, "OverflowError",
         "verify_covariance_summary.txt"),
        (["paths"], 1e300, "OverflowError", None),
        (["verify", "operators"], 1e300, "OverflowError",
         "verify_operators_summary.txt"),
    ])
    def test_reported_with_stage(self, tmp_path, capsys, command, T, fault,
                                 summary):
        cfg = write_config(tmp_path, T=T, n_paths=50, n_steps=16)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*command, "--config", str(cfg), "--out", str(out)])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert rc == EXIT_CHECK_FAILURE
        stage = " ".join(command)
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"{command[0]} FAILED in stage {stage}: {fault}")
        if summary is not None:
            last = (out / summary).read_text().splitlines()[-1]
            assert last.startswith(f"FAILED in stage {stage}: {fault}")


class TestSolveCommand:
    def test_invariant_violation_exits_nonzero(self, tmp_path):
        cfg = write_config(tmp_path, R=0.0)
        assert main(["solve-lq", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILURE

    def test_blowup_reported_with_stage(self, tmp_path, capsys):
        cfg = write_config(tmp_path, A=40.0)
        out = tmp_path / "o"
        rc = main(["solve-lq", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_CHECK_FAILURE
        assert err.count("\n") == 1 and "stage picard" in err
        assert "BlowupError" in err and "Traceback" not in err
        summary = (out / "solve_summary.txt").read_text()
        assert summary.splitlines()[-1].startswith("FAILED in stage picard: BlowupError")

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tol=1e-13, max_iter=2)
        rc = main(["solve-lq", "--config", str(cfg), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert rc == EXIT_NO_CONVERGENCE

    def test_brownian_fixture_full_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_paths=2000, n_steps=64, N=0.0,
                           n_directions=2, eps_list=[0.1])
        out = tmp_path / "o"
        rc = main(["solve-lq", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, captured.out
        summary = (out / "solve_summary.txt").read_text()
        assert "riccati_oracle J" in summary
        assert "converged: True" in summary
        for name in ("control.csv", "adjoint.csv", "stationarity_residual.csv",
                     "bsde_residual.csv", "optimality_sweep.csv"):
            assert (out / name).exists()

    def test_mixed_fixture_full_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_paths=2000, n_steps=64, N=0.3,
                           n_directions=2, eps_list=[0.1])
        out = tmp_path / "o"
        rc = main(["solve-lq", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, captured.out
        summary = (out / "solve_summary.txt").read_text()
        assert "stationarity_residual max |z|" in summary
        assert "riccati_oracle" not in summary

    def test_solve_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, n_paths=500, n_steps=32,
                           n_directions=1, eps_list=[0.1])
        outs = []
        for name, workers in (("r1", "1"), ("r2", "3")):
            out = tmp_path / name
            main(["solve-lq", "--config", str(cfg), "--out", str(out),
                  "--workers", workers])
            outs.append(out)
        for fname in ("control.csv", "adjoint.csv", "optimality_sweep.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_control_csv_bytes_match_reference_loop(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, n_paths=250, n_steps=16,
                                n_directions=1, eps_list=[0.1])
        out = tmp_path / "o"
        main(["solve-lq", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        cfg = load_config(cfg_path)
        paths = generate_paths(cfg)
        sol = lq_picard_solve(lq_spec_from_config(cfg), paths,
                              PicardOptions(theta=cfg["theta"], tol=cfg["tol"],
                                            max_iter=cfg["max_iter"], u0=cfg["u0"]))
        t = paths.grid.nodes
        lines = ["# first 200 paths\n", "path,node,t,u\n"]
        for p in range(200):
            for k in range(paths.grid.n_nodes):
                lines.append(f"{p},{k},{t[k]:.17g},{sol.u.values[p, k]:.17g}\n")
        assert (out / "control.csv").read_bytes() == "".join(lines).encode()

    def test_two_drivers_solve_the_independent_bm_model(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, m=2, n_steps=32, N=0.3,
                                n_directions=1, eps_list=[0.1])
        out = tmp_path / "o"
        rc = main(["solve-lq", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        cfg = load_config(cfg_path)
        sol = lq_picard_solve(lq_spec_from_config(cfg), generate_paths(cfg),
                              PicardOptions(theta=cfg["theta"], tol=cfg["tol"],
                                            max_iter=cfg["max_iter"], u0=cfg["u0"]))
        summary = (out / "solve_summary.txt").read_text()
        assert f"J: {sol.J:.8f} +- {sol.J_stderr:.8f}" in summary.splitlines()
        # adjoint.csv reports q of W (driver 1), the driver the control acts on
        rows = (out / "adjoint.csv").read_text().splitlines()[1:]
        q_mean = np.array([float(r.split(",")[4]) for r in rows])
        assert np.any(q_mean != 0.0)
        assert np.array_equal(q_mean, sol.estimate.q_mean()[1])

    def test_more_than_two_drivers_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=3, n_steps=32)
        out = tmp_path / "o"
        rc = main(["solve-lq", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.count("\n") == 1 and "m = 3" in err and "Traceback" not in err
        assert not (out / "solve_summary.txt").exists()
