"""Generators and kernels against the analytic covariance law."""

import ast
import errno
import functools
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import roots_jacobi

from fbmcontrol import _special, fbm, rng, verify
from fbmcontrol.errors import DomainError, GridMismatchError
from fbmcontrol.fbm import (Hurst, TimeGrid, coarsen, fbm_covariance,
                            fbm_from_cholesky, fbm_from_kernel, generate_bm,
                            kappa_h, kernel_subdiagonal, kernel_weights,
                            kernel_z_closed)

# frozen via an independent high-precision (mpmath) evaluation
KAPPA_H_075 = 1.0696446350319903
KAPPA_H_06 = 1.0760051841318072
KAPPA_H_09 = 0.81122064814335251
KERNEL_Z_1_05_075 = 0.93759196369805723

# R(1, r) = Z_H(1, r) / (1 - r)^{H-1/2} to 20 digits, generated once with
# mpmath 1.3.0 at r = mpf(<the double r>), H = mpf(<the double H>):
#   mp.dps = 40; a = H - 0.5; b = a + 1
#   kH = sqrt(2*H*gamma(1.5 - H) / (gamma(b)*gamma(2 - 2*H)))
#   kH * (r**-a - a/b * r**a * (1 - r) * hyp2f1(2*H, b, b + 1, 1 - r))
# (agrees with mpmath.quad of the inner integral of Z_H to 25 digits).
# r >= 1/2 is the Gauss-series side of the split, r < 1/2 the connection side.
SMOOTH_FACTOR_REFS = {
    0.51: [(1e-07, "1.023070744552555904"), (0.0001, "1.0142217194552216632"),
           (0.01, "1.0110081765199763506"), (0.1, "1.0101792323059708564"),
           (0.3, "1.0099447673151022933"), (0.45, "1.0098804155146569324"),
           (0.4999, "1.0098654705979530478"), (0.5, "1.009865442828758059"),
           (0.5001, "1.0098654150675864635"), (0.55, "1.009852489484491538"),
           (0.7, "1.009822124424493954"), (0.9, "1.0097939572522503835"),
           (0.99, "1.0097841486644717252"), (0.9999, "1.0097831513049285198"),
           (0.9999999, "1.0097831413163223206")],
    0.75: [(1e-07, "30.087736290254125961"), (0.0001, "5.4180742485502292403"),
           (0.01, "1.9050442319975913099"), (0.1, "1.3057711898347387598"),
           (0.3, "1.160822102880769991"), (0.45, "1.1234956259259760117"),
           (0.4999, "1.1150067403920104382"), (0.5, "1.1149910341991026238"),
           (0.5001, "1.1149753327959602346"), (0.55, "1.1076924326730509082"),
           (0.7, "1.0908096880912154195"), (0.9, "1.0754553825777476251"),
           (0.99, "1.0701837273719026748"), (0.9999, "1.0696499836786021856"),
           (0.9999999, "1.0696446403802139198")],
    0.95: [(1e-07, "426.36439415623282048"), (0.0001, "19.061328170529781783"),
           (0.01, "2.4881930302719677379"), (0.1, "1.0326776713968183198"),
           (0.3, "0.75705457425055739075"), (0.45, "0.69210824469046180367"),
           (0.4999, "0.67773271673760283616"), (0.5, "0.67770626125896743751"),
           (0.5001, "0.67767981437856764484"), (0.55, "0.66547044602618375147"),
           (0.7, "0.63762480023616203776"), (0.9, "0.61288911080450245186"),
           (0.99, "0.60453464279036331448"), (0.9999, "0.60369287663173751883"),
           (0.9999999, "0.60368445359105306281")],
}

# W[k, 0] on (T 2, n 300, H 0.9), the same quadrature (the double-precision
# roots_jacobi(4, 0, -a) nodes and weights; roots_jacobi(4, a, -a) for k = 1;
# fbm._gauss_jacobi gives them bit for bit)
# summed at mp.dps = 40 with R from the hyp2f1 formula above and
# dt = mpf(2.0 / 300):
#   k = 1:  dt**a * sum(w * s**a * (1-s)**-a * R(1, s) * (1-s)**a) / 2
#   k >= 2: dt**a * 0.5**(1-a) * sum(w * s**a * R(k, s) * (k-s)**a)
FIRST_CELL_T2_N300_H09 = [
    (1, "0.1033307747881468617"), (2, "0.19060517710401137047"),
    (3, "0.25849530388919417784"), (10, "0.62960166529595005878"),
    (30, "1.4495870714588997043"), (100, "3.7010803612469146366"),
    (150, "5.0932771183759870771"), (200, "6.393131877271130329"),
    (250, "7.6285025541663892968"), (266, "8.0129203050421107777"),
    (279, "8.321843377253369537"), (299, "8.7915440636050140069"),
    (300, "8.8148603078600062391"),
]


class TestHurstAndGrid:
    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.3, 1.2, -0.75])
    def test_hurst_rejects_outside_open_interval(self, bad):
        with pytest.raises(DomainError):
            Hurst(bad)

    def test_grid_nodes_uniform(self):
        g = TimeGrid(2.0, 8)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert np.allclose(np.diff(g.nodes), g.dt)

    def test_grid_rejects_bad_args(self):
        with pytest.raises(DomainError):
            TimeGrid(-1.0, 8)
        with pytest.raises(DomainError):
            TimeGrid(1.0, 0)


class TestCovariance:
    def test_unit_diagonal(self):
        assert fbm_covariance(1.0, 1.0, 0.75) == pytest.approx(1.0)

    def test_zero_time(self):
        assert fbm_covariance(3.0, 0.0, 0.62) == pytest.approx(0.0)

    def test_derived_value(self):
        # 0.5 (1 + 2^{1.5} - 1) = sqrt(2)
        assert fbm_covariance(1.0, 2.0, 0.75) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_symmetry_and_diagonal_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t, s = rng.uniform(0, 3, 2)
            H = rng.uniform(0.51, 0.99)
            assert fbm_covariance(t, s, H) == pytest.approx(fbm_covariance(s, t, H))
            assert fbm_covariance(t, t, H) == pytest.approx(t ** (2 * H))

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            fbm_covariance(-1.0, 1.0, 0.75)


class TestKappaH:
    def test_boundary_value_is_one(self):
        assert kappa_h(0.5) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("H,expected", [(0.6, KAPPA_H_06),
                                            (0.75, KAPPA_H_075),
                                            (0.9, KAPPA_H_09)])
    def test_frozen_values(self, H, expected):
        assert kappa_h(H) == pytest.approx(expected, rel=1e-14)

    def test_positive_across_range(self):
        for H in np.linspace(0.51, 0.99, 25):
            assert kappa_h(H) > 0


def kernel_z(t: float, s: float, H: float) -> float:
    """Z_H(t, s) on 0 < s < t from its defining integral, the inner integral
    by scipy's adaptive quad: the oracle of ``kernel_z_closed``, which shares
    nothing with its series."""
    inner, _ = quad(lambda u: u ** (H - 1.5) * (u - s) ** (H - 0.5), s, t,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    return kappa_h(H) * ((t / s) ** (H - 0.5) * (t - s) ** (H - 0.5)
                         - (H - 0.5) * s ** (0.5 - H) * inner)


@functools.cache
def nested_quad_sq(t: float, H: float) -> float:
    """int_0^t kernel_z(t, s, H)^2 ds by a quad around ``kernel_z``'s quad."""
    val, _ = quad(lambda s: kernel_z(t, s, H) ** 2, 0, t,
                  epsabs=1e-13, epsrel=1e-10, limit=400, points=[0.0, t])
    return val


class TestKernelZ:
    def test_domain_errors(self):
        for (t, s) in [(1.0, 1.0), (1.0, 2.0), (1.0, 0.0), (1.0, -0.5)]:
            with pytest.raises(DomainError):
                kernel_z_closed(t, s, 0.75)

    def test_frozen_value(self):
        assert kernel_z(1.0, 0.5, 0.75) == pytest.approx(KERNEL_Z_1_05_075, rel=1e-10)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            H = rng.uniform(0.55, 0.95)
            t = rng.uniform(0.2, 2.0)
            s = rng.uniform(0.01, 0.99) * t
            assert kernel_z_closed(t, s, H) == pytest.approx(
                kernel_z(t, s, H), rel=1e-9)

    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_square_integral_identity(self, H, t):
        # int_0^t Z_H(t,s)^2 ds = t^{2H}: forced by Var B^H(t)
        assert nested_quad_sq(t, H) == pytest.approx(t ** (2 * H), rel=1e-6)


class TestKernelSqIdentity:
    """``verify.kernel_sq_identity``: its Gauss-Kronrod rule, and its
    integral of the closed form against the nested quad of ``kernel_z``."""

    def test_rule_bisects_toward_both_ends(self):
        # bounded, with a singular derivative at either end
        val, err, converged = verify._gauss_kronrod(
            lambda s: s ** 0.3 * (1 - s) ** 0.8, 0.0, 1.0, 1e-13)
        assert converged and err <= 1e-13
        assert val == pytest.approx(_special.beta(1.3, 1.8), rel=1e-13, abs=0)

    def test_split_takes_both_end_point_powers(self):
        val, err, converged = verify._split_integral(
            lambda s: s ** -0.8 * (1 - s) ** 0.8, 1.0, 0.8, 1e-13)
        beta = _special.beta(0.2, 1.8)
        assert converged and err <= 1e-13 * beta
        assert val == pytest.approx(beta, rel=1e-13, abs=0)

    @pytest.mark.parametrize("H", [0.51, 0.6, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_matches_nested_quad(self, H, t):
        val, err, converged = verify._kernel_sq_integral(t, H)
        assert converged and err <= 1e-13
        assert val == pytest.approx(t ** (2 * H), rel=1e-12, abs=0)
        if H < 0.99:
            assert val == pytest.approx(nested_quad_sq(t, H), rel=1e-12, abs=0)
            return
        # at H 0.99 the inner quad reports roundoff and the nested value is
        # itself 1.9e-11 from t^{2H} at t = 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            oracle = nested_quad_sq(t, H)
        assert val == pytest.approx(oracle, rel=1e-10, abs=0)

    def test_checks_pass_with_their_values(self):
        checks = verify.kernel_sq_identity((0.6, 0.75, 0.9))
        assert [c.name for c in checks] == [
            f"kernel_sq_identity_H{H}_t{t}"
            for H in (0.6, 0.75, 0.9) for t in (0.25, 0.5, 1.0)]
        assert all(c.passed and c.value <= 1e-12 and c.tolerance == 1e-6
                   and c.detail == "" for c in checks)

    @pytest.mark.parametrize("near", [True, False])
    def test_fails_on_r_off_on_one_side(self, monkeypatch, near):
        # R scaled by 1 + 1e-4 on one side of its c = 1/2 split; the nested
        # quad of kernel_z never evaluates R and would pass it
        side = fbm._SmoothFactor.side

        def skewed(self, r, c, on_near, unit_z, work):
            out = side(self, r, c, on_near, unit_z, work)
            return out * (1 + 1e-4) if on_near == near else out

        monkeypatch.setattr(fbm._SmoothFactor, "side", skewed)
        checks = verify.kernel_sq_identity((0.6, 0.75, 0.9))
        assert not any(c.passed for c in checks)
        assert min(c.value for c in checks) > 1e-5

    def test_round_cap_fails_the_check(self, monkeypatch):
        # Z^2 = 1/s is not integrable at 0: the rule bisects toward 0 until
        # its round cap, and the check fails with no traceback or warning
        val, err, converged = verify._gauss_kronrod(lambda s: 1 / s, 0.0, 1.0, 1e-13)
        assert not converged and err > 1e-13
        monkeypatch.setattr(verify, "kernel_z_closed", lambda t, s, H: s ** -0.5)
        check = verify.kernel_sq_identity((0.75,))[0]
        assert not check.passed
        assert check.detail.startswith("integral ")
        assert check.detail.endswith("misses its error target")

    def test_underflowing_node_fails_the_check(self):
        # at H 0.999, s = t w^500 underflows to 0 on the first round
        checks = verify.kernel_sq_identity((0.999,))
        assert not any(c.passed for c in checks)
        assert {c.detail for c in checks} == {
            "a node s = t w^(1/(2-2H)) underflows to 0"}


class TestGenerateBm:
    def test_increment_variance(self, bm_large):
        n = bm_large.n_paths * bm_large.m * bm_large.grid.n_steps
        v = bm_large.dB.var()
        dt = bm_large.grid.dt
        z = abs(v - dt) / (dt * np.sqrt(2.0 / n))
        assert z < 4.0

    def test_determinism(self):
        grid = TimeGrid(1.0, 32)
        a = generate_bm(grid, 2, 50, seed=99)
        b = generate_bm(grid, 2, 50, seed=99)
        assert np.array_equal(a.dB, b.dB)
        assert np.array_equal(a.B, b.B)

    def test_seed_changes_output(self):
        grid = TimeGrid(1.0, 32)
        a = generate_bm(grid, 1, 50, seed=1)
        b = generate_bm(grid, 1, 50, seed=2)
        assert not np.array_equal(a.dB, b.dB)

    def test_cross_dimension_correlation(self, bm_large):
        x = bm_large.dB[:, 0, :].ravel()
        y = bm_large.dB[:, 1, :].ravel()
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 4.0 / np.sqrt(len(x))

    def test_path_prefix_stability(self):
        # per-path keyed streams: first paths identical when n_paths grows
        grid = TimeGrid(1.0, 16)
        small = generate_bm(grid, 1, 10, seed=5)
        big = generate_bm(grid, 1, 40, seed=5)
        assert np.array_equal(small.dB, big.dB[:10])

    def test_b_cumulative_and_zero_start(self, bm_large):
        assert np.all(bm_large.B[..., 0] == 0.0)
        assert np.allclose(bm_large.B[..., -1], bm_large.dB.sum(axis=-1))

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        # 8 blocks on at most 3 threads; the paths do not depend on either
        opened = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(fbm, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(fbm, "_kernel_threads", lambda: 3)
        grid = TimeGrid(1.0, 16)
        serial = generate_bm(grid, 2, 20, seed=3)
        for workers, threads in ((8, 3), (2, 2)):
            opened.clear()
            bm = generate_bm(grid, 2, 20, seed=3, workers=workers)
            assert opened == [threads]
            assert np.array_equal(bm.dB, serial.dB)


class TestKernelGenerator:
    def test_zero_start(self, coupled_paths_256):
        assert np.all(coupled_paths_256.BH[..., 0] == 0.0)

    def test_terminal_variance(self):
        grid = TimeGrid(1.0, 512)
        ps = fbm_from_kernel(generate_bm(grid, 1, 100_000, seed=31), 0.75)
        v = ps.BH[:, 0, -1].var(ddof=1)
        se = v * np.sqrt(2.0 / ps.n_paths)
        assert abs(v - 1.0) < 4 * se

    def test_grid_covariance_probes(self, coupled_paths_256):
        # entrywise agreement with the analytic law at probe node pairs
        ps = coupled_paths_256
        nodes = ps.grid.nodes
        for (i, j) in [(64, 256), (128, 256), (64, 128)]:
            prod = ps.BH[:, 0, i] * ps.BH[:, 0, j]
            c_true = fbm_covariance(nodes[i], nodes[j], 0.75)
            se = prod.std(ddof=1) / np.sqrt(ps.n_paths)
            assert abs(prod.mean() - c_true) < 4 * se + 0.02 * c_true

    @pytest.mark.parametrize("n", [64, 513])
    def test_bits_independent_of_table_history_threads_and_workers(
            self, n, monkeypatch):
        # the contraction's pieces depend only on (n, TABLE_BLOCK_ROWS): a
        # table grown past n, or built on 1 or 2 threads in units of 1 or
        # 16 rows, and paths drawn by 1 or 2 workers give the same B^H
        monkeypatch.setattr(fbm, "_unit_tables", {})
        grid = TimeGrid(1.0, n)
        ref = fbm_from_kernel(generate_bm(grid, 2, 7, seed=17), 0.75).BH
        for threads, rows, workers, grow_to in ((1, 16, 1, 4 * n), (2, 1, 2, n),
                                                (2, 16, 2, 2 * n + 3)):
            monkeypatch.setattr(fbm, "_unit_tables", {})
            monkeypatch.setattr(fbm, "_kernel_threads", lambda: threads)
            monkeypatch.setattr(fbm, "KERNEL_BLOCK_ROWS", rows)
            fbm._unit_table(0.75, n // 3)
            fbm._unit_table(0.75, grow_to)
            bm = generate_bm(grid, 2, 7, seed=17, workers=workers)
            assert np.array_equal(fbm_from_kernel(bm, 0.75).BH, ref)

    @pytest.mark.parametrize("n", [64, 300, 513])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n_paths", [1, 7, 250])
    def test_matches_dense_einsum(self, n_paths, m, n):
        # the blocked contraction sums fewer terms in another order than
        # the dense product: the same values to rounding
        bm = generate_bm(TimeGrid(1.0, n), m, n_paths, seed=17)
        ref = np.einsum("ki,pdi->pdk", kernel_weights(bm.grid, 0.75), bm.dB)
        got = fbm_from_kernel(bm, 0.75).BH
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.all(got[..., 0] == 0.0)

    def test_requires_increments(self):
        grid = TimeGrid(1.0, 16)
        ch = fbm_from_cholesky(grid, 0.75, 1, 10, seed=0)
        with pytest.raises(GridMismatchError):
            fbm_from_kernel(ch, 0.75)

    def test_weights_reproduce_discrete_variance(self):
        # sum_i W[k,i]^2 dt is the generator's exact node variance
        grid = TimeGrid(1.0, 128)
        W = kernel_weights(grid, 0.75)
        var_disc = (W ** 2).sum(axis=1) * grid.dt
        t = grid.nodes
        assert abs(var_disc[-1] - 1.0) < 6e-3
        assert abs(var_disc[64] - t[64] ** 1.5) < 6e-3


class TestKernelTable:
    def test_grown_table_equals_direct_build(self, monkeypatch):
        monkeypatch.setattr(fbm, "_unit_tables", {})
        for n in (64, 256, 1024):
            grown = kernel_weights(TimeGrid(1.0, n), 0.75)
        monkeypatch.setattr(fbm, "_unit_tables", {})
        assert np.array_equal(grown, kernel_weights(TimeGrid(1.0, 1024), 0.75))

    def test_independent_of_threads_and_block_rows(self, monkeypatch):
        tables = []
        for threads in (1, 2):
            for rows in (1, 16):
                monkeypatch.setattr(fbm, "_unit_tables", {})
                monkeypatch.setattr(fbm, "_kernel_threads", lambda: threads)
                monkeypatch.setattr(fbm, "KERNEL_BLOCK_ROWS", rows)
                tables.append(kernel_weights(TimeGrid(1.0, 300), 0.8))
        for W in tables[1:]:
            assert np.array_equal(W, tables[0])

    def test_concurrent_growth_computes_each_row_once(self, monkeypatch):
        sizes = [40, 200, 80, 160, 120, 20]
        monkeypatch.setattr(fbm, "_unit_tables", {})
        computed = []
        unit_rows = fbm._unit_rows
        monkeypatch.setattr(fbm, "_unit_rows", lambda rules, blocks, k0, k1: (
            computed.append(k1 - k0), unit_rows(rules, blocks, k0, k1))[1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(sizes)) as pool:
                futures = [pool.submit(kernel_weights, TimeGrid(1.0, n), 0.7)
                           for n in sizes]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sum(computed) == max(sizes) + 1
        for n, W in zip(sizes, got):
            monkeypatch.setattr(fbm, "_unit_tables", {})
            assert np.array_equal(W, kernel_weights(TimeGrid(1.0, n), 0.7))

    def test_blocks_hold_the_causal_part(self, monkeypatch):
        # block j: rows jB <= k < (j+1)B and the (j+1)B - 1 columns they
        # reach; every other entry of the dense W is zero
        monkeypatch.setattr(fbm, "_unit_tables", {})
        n, B = 600, fbm.TABLE_BLOCK_ROWS
        blocks = fbm._unit_table(0.75, n)
        assert [b.shape for b in blocks] == [
            (B, B - 1), (B, 2 * B - 1), (n + 1 - 2 * B, 3 * B - 1)]
        assert all(not b.flags.writeable for b in blocks)
        W = kernel_weights(TimeGrid(float(n), n), 0.75)  # dt = 1: the table
        assert np.array_equal(W, np.tril(W, -1))
        for j, b in enumerate(blocks):
            assert np.array_equal(b[:, :n], W[j * B:(j + 1) * B, :b.shape[1]])
        assert not blocks[-1][:, n:].any()

    @pytest.mark.parametrize("block_rows", [7, 601])
    def test_entries_independent_of_storage_blocks(self, block_rows, monkeypatch):
        # 601 rows: one block, with no edge to place a row across
        grid = TimeGrid(1.0, 600)
        monkeypatch.setattr(fbm, "_unit_tables", {})
        W = kernel_weights(grid, 0.75)
        monkeypatch.setattr(fbm, "_unit_tables", {})
        monkeypatch.setattr(fbm, "TABLE_BLOCK_ROWS", block_rows)
        assert np.array_equal(kernel_weights(grid, 0.75), W)
        assert np.array_equal(kernel_subdiagonal(grid, 0.75), np.diagonal(W, -1))

    def test_held_table_takes_the_causal_part(self, monkeypatch):
        n = 2048
        monkeypatch.setattr(fbm, "_unit_tables", {})
        fbm._cell_rules(0.75)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fbm._unit_table(0.75, n)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 0.57 * (n + 1) * n * 8  # 18.0 of the dense 32.0 MiB

    def test_growth_allocates_no_second_table(self, monkeypatch):
        # 1 024 -> 2 048 steps: the full blocks are kept as they are, and
        # what the growth allocates beyond the grown table's new blocks (the
        # worker's scratch, one partial block) stays under a quarter of the
        # dense table; a copy of the held table alone would be 8 MiB more
        n = 2048
        monkeypatch.setattr(fbm, "_unit_tables", {})
        monkeypatch.setattr(fbm, "_kernel_threads", lambda: 1)
        held = fbm._unit_table(0.75, n // 2)
        tracemalloc.start()
        try:
            fbm._unit_table(0.75, n)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grown = fbm._unit_table(0.75, n)
        assert all(a is b for a, b in zip(grown, held[:-1]))
        assert peak - after <= 0.25 * (n + 1) * n * 8

    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
    def test_homogeneity_in_the_horizon(self, H):
        n = 100
        W1 = kernel_weights(TimeGrid(1.0, n), H)
        W2 = kernel_weights(TimeGrid(2.0, n), H)
        nz = W1 != 0
        assert np.array_equal(nz, W2 != 0)
        rel = np.abs(W2[nz] - 2 ** (H - 0.5) * W1[nz]) / np.abs(W2[nz])
        assert rel.max() <= 1e-15

    def test_read_only(self):
        W = kernel_weights(TimeGrid(1.0, 16), 0.75)
        with pytest.raises(ValueError):
            W[2, 1] = 0.0

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("n", [64, 512])
    def test_subdiagonal_is_bitwise_the_weights_diagonal(self, T, n):
        grid = TimeGrid(T, n)
        sub = kernel_subdiagonal(grid, 0.75)
        assert sub.shape == (n,)
        assert np.array_equal(sub, np.diagonal(kernel_weights(grid, 0.75), -1))

    def test_first_cells_match_40_digit_quadrature(self):
        W = kernel_weights(TimeGrid(2.0, 300), 0.9)
        for k, ref in FIRST_CELL_T2_N300_H09:
            assert abs(W[k, 0] - float(ref)) <= 1e-14 * float(ref)

    @pytest.mark.parametrize("H", [0.5 + 1e-9, 0.51, 0.75, 0.95, 1 - 1e-6])
    def test_gauss_jacobi_rules_match_scipy(self, H):
        a = H - 0.5
        for alpha, beta in ((a, -a), (0.0, -a), (a, 0.0)):
            x, w = fbm._gauss_jacobi(alpha, beta)
            x_ref, w_ref = roots_jacobi(fbm.KERNEL_ORDER, alpha, beta)
            assert np.all(np.abs(x - x_ref) <= 4 * np.spacing(np.abs(x_ref)))
            assert np.all(np.abs(w - w_ref) <= 4 * np.spacing(w_ref))

    @pytest.mark.parametrize("H", [0.6, 0.9])
    def test_interior_cells_are_legendre_cell_averages(self, H):
        grid = TimeGrid(1.0, 64)
        W = kernel_weights(grid, H)
        x, w = np.polynomial.legendre.leggauss(4)
        t = grid.nodes
        for k in range(3, grid.n_nodes):
            for i in range(1, k - 1):
                s = t[i] + grid.dt * (x + 1) / 2
                avg = 0.5 * np.dot(w, kernel_z_closed(t[k], s, H))
                assert abs(W[k, i] - avg) <= 1e-14 * abs(avg)


class TestSmoothFactor:
    @pytest.mark.parametrize("H", sorted(SMOOTH_FACTOR_REFS))
    def test_matches_40_digit_references(self, H):
        R = fbm._smooth_factor(H)
        r = np.array([r for r, _ in SMOOTH_FACTOR_REFS[H]])
        ref = np.array([float(v) for _, v in SMOOTH_FACTOR_REFS[H]])
        assert np.all(np.abs(R(1.0, r) - ref) <= 1e-14 * ref)

    def test_small_s_over_t(self):
        # t = 1000, s = 0.002, H 0.9: c = (t - s)/t is within 2e-6 of one,
        # where forming r as 1 - c would lose about ten digits
        R = fbm._smooth_factor(0.9)
        assert abs(R(1000.0, 0.002) - 77.219688193861183123) <= 1e-14 * 77.22

    @pytest.mark.parametrize("H", [0.5 + 1e-9, 0.51, 0.75, 0.95, 1 - 1e-6])
    def test_term_count_reaches_the_split(self, H, monkeypatch):
        # at the split, c = 1/2 for the Gauss series and r just below 1/2
        # for the connection series, both reach their 200-term sums within
        # an ulp
        polyval = np.polynomial.polynomial.polyval
        v = (0.5, np.nextafter(0.5, 0.0))
        sums = [polyval(x, s) for x, s in zip(v, fbm._series_coefficients(H))]
        monkeypatch.setattr(fbm, "KERNEL_SERIES_TERMS", 200)
        long = [polyval(x, s) for x, s in zip(v, fbm._series_coefficients(H))]
        for got, ref in zip(sums, long):
            assert abs(got - ref) <= np.spacing(abs(ref))

    @pytest.mark.parametrize("H", [0.5 + 1e-9, 0.51, 0.75, 0.95, 1 - 1e-6])
    def test_short_series_match_the_long_ones(self, H):
        # the economized sums that R evaluates, against the 61-term power
        # series they replace, on a dense grid of r in (0, 1): c = 1 - r
        # takes the Gauss series where c <= 1/2, r the connection series
        # where c > 1/2
        R = fbm._smooth_factor(H)
        polyval = np.polynomial.polynomial.polyval
        r = np.linspace(0.0, 1.0, 20_001)[1:-1]
        r = np.concatenate([r, np.geomspace(1e-12, 1e-3, 500),
                            1 - np.geomspace(1e-12, 1e-3, 500)])
        c = 1.0 - r
        for (s0, p), series, v in zip((R.gauss, R.conn),
                                      fbm._series_coefficients(H),
                                      (c[c <= 0.5], r[c > 0.5])):
            short = s0 + v * polyval(4 * v - 1, p)
            long = polyval(v, series)
            assert np.all(np.abs(short - long) <= 4 * np.spacing(long))

    def test_scalar_and_broadcast_inputs(self):
        R = fbm._smooth_factor(0.75)
        assert R(1.0, 0.3).shape == ()
        grid = R(np.array([[1.0], [2.0]]), np.array([0.2, 0.9]))
        assert grid.shape == (2, 2)
        assert grid[1, 1] == R(2.0, 0.9)


def _run_fresh(probe: str) -> list[str]:
    """Output lines of ``probe`` run in a fresh interpreter on this package."""
    src = str(Path(fbm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.splitlines()


class TestLazyImport:
    def test_import_builds_nothing(self):
        # a profiler records every Python function called during the import
        probe = (
            "import sys, threading\n"
            "import numpy\n"
            "names = {'_smooth_factor', '_cell_rules', '_unit_rows', '_unit_table'}\n"
            "called = set()\n"
            "def hook(frame, event, arg):\n"
            "    if event == 'call' and frame.f_code.co_name in names:\n"
            "        called.add(frame.f_code.co_name)\n"
            "sys.setprofile(hook)\n"
            "import fbmcontrol\n"
            "from fbmcontrol import fbm\n"
            "sys.setprofile(None)\n"
            "print(len(fbm._unit_tables), sorted(called))\n"
            "sys.setprofile(hook)\n"
            "threading.setprofile(hook)\n"
            "fbm.kernel_weights(fbm.TimeGrid(1.0, 4), 0.75)\n"
            "sys.setprofile(None)\n"
            "print(len(fbm._unit_tables), sorted(called))\n"
        )
        assert _run_fresh(probe) == [
            "0 []", "1 ['_cell_rules', '_smooth_factor', '_unit_rows', '_unit_table']"]

    def test_cli_import_loads_no_heavy_scipy(self, tmp_path):
        # numpy alone at import, after a cold kernel table (numpy's
        # eigensolver gives the Gauss-Jacobi rules) and after the paths,
        # solve-lq and verify covariance commands, each in a fresh interpreter
        loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        cfg = tmp_path / "config.json"
        cfg.write_text('{"n_paths": 250, "n_steps": 16, "seed": 7, "tol": 1e-4, '
                       '"n_directions": 1, "eps_list": [0.1]}')
        run = ("print([cli.main([*argv, '--config', {!r}, '--out', {!r}]) for argv in "
               "(['paths', '--workers', '2'], ['solve-lq'], ['verify', 'covariance'])])\n"
               ).format(str(cfg), str(tmp_path / "out"))
        kernel = ("fbm.kernel_weights(fbm.TimeGrid(1.0, 64), 0.75)\n"
                  "print(len(fbm._unit_tables))\n")
        head = "import sys\nimport fbmcontrol.cli as cli\nfrom fbmcontrol import fbm\n"
        assert _run_fresh(head + loaded) == ["[]"]
        assert _run_fresh(head + kernel + loaded) == ["1", "[]"]
        # the last two lines, after the commands' own reports
        assert _run_fresh(head + run + loaded)[-2:] == ["[0, 0, 0]", "[]"]

    def test_no_source_file_imports_scipy(self):
        # scipy is a test dependency only: no import of it at any depth
        src = Path(fbm.__file__).resolve().parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom)
                         else [])
                found += [f"{path.name}:{node.lineno}" for n in names
                          if n.split(".")[0] == "scipy"]
        assert found == []


def _row_writer_csv(ps) -> str:
    """paths.csv as written one f-string row at a time, the writer that
    ``PathSet.to_csv`` must match byte for byte."""
    node_t = [f"{k},{t:.17g}," for k, t in enumerate(ps.grid.nodes.tolist())]
    nan_row = [float("nan")] * ps.grid.n_nodes
    B, BH = ps.B, ps.BH
    out = ["path,dim,node,t,B,BH\n"]
    for p in range(ps.n_paths):
        for d in range(ps.m):
            b = B[p, d].tolist() if B is not None else nan_row
            bh = BH[p, d].tolist() if BH is not None else nan_row
            out += [f"{p},{d},{kt}{x:.17g},{y:.17g}\n"
                    for kt, x, y in zip(node_t, b, bh)]
    return "".join(out)


class TestCholeskyGenerator:
    def test_single_node_variance(self):
        grid = TimeGrid(1.0, 1)
        ps = fbm_from_cholesky(grid, 0.8, 1, 50_000, seed=11)
        v = ps.BH[:, 0, -1].var(ddof=1)
        assert abs(v - 1.0) < 4 * v * np.sqrt(2.0 / 50_000)

    @pytest.mark.parametrize("H", [0.6, 0.9])
    def test_covariance_matches(self, H):
        grid = TimeGrid(1.0, 64)
        ps = fbm_from_cholesky(grid, H, 1, 50_000, seed=13)
        nodes = grid.nodes
        for (i, j) in [(16, 64), (32, 48)]:
            prod = ps.BH[:, 0, i] * ps.BH[:, 0, j]
            c_true = fbm_covariance(nodes[i], nodes[j], H)
            se = prod.std(ddof=1) / np.sqrt(ps.n_paths)
            assert abs(prod.mean() - c_true) < 4 * se

    def test_self_similarity(self):
        # Var B^H(at) / a^{2H} == Var B^H(t) within joint MC error
        H = 0.75
        grid = TimeGrid(1.0, 64)
        ps = fbm_from_cholesky(grid, H, 1, 50_000, seed=17)
        v_half = ps.BH[:, 0, 32].var(ddof=1)
        v_full = ps.BH[:, 0, 64].var(ddof=1)
        scaled = v_full / 2 ** (2 * H)
        se = np.hypot(v_half, scaled) * np.sqrt(2.0 / ps.n_paths)
        assert abs(v_half - scaled) < 4 * se

    def test_cross_generator_agreement(self):
        # kernel construction vs exact law: marginal variances within
        # joint MC + discretization tolerance
        grid = TimeGrid(1.0, 256)
        kp = fbm_from_kernel(generate_bm(grid, 1, 30_000, seed=19), 0.7)
        ch = fbm_from_cholesky(grid, 0.7, 1, 30_000, seed=23)
        vk = kp.BH[:, 0, -1].var(ddof=1)
        vc = ch.BH[:, 0, -1].var(ddof=1)
        se = np.hypot(vk, vc) * np.sqrt(2.0 / 30_000)
        assert abs(vk - vc) < 4 * se + 0.02


class TestPathSetPlumbing:
    def test_csv_round_trip_format(self, tmp_path):
        grid = TimeGrid(1.0, 4)
        ps = fbm_from_kernel(generate_bm(grid, 1, 3, seed=3), 0.75)
        f = tmp_path / "paths.csv"
        ps.to_csv(f)
        lines = f.read_text().splitlines()
        assert lines[0] == "path,dim,node,t,B,BH"
        assert len(lines) == 1 + 3 * 1 * 5

    def test_csv_bytes_match_reference_loop(self, tmp_path, monkeypatch):
        # Brownian paths alone (BH is NaN), an m = 2 kernel bundle with both
        # columns, and a Cholesky bundle (B is NaN); the last two have fewer
        # paths than workers.  Three CPUs, so workers 3 forks two writers
        monkeypatch.setattr(fbm, "_kernel_threads", lambda: 3)
        grid = TimeGrid(1.0, 8)
        bundles = [generate_bm(TimeGrid(1.0, 4), 2, 3, seed=5),
                   fbm_from_kernel(generate_bm(grid, 2, 3, seed=7), 0.75),
                   fbm_from_cholesky(grid, 0.75, 1, 3, seed=7),
                   fbm_from_kernel(generate_bm(grid, 2, 2, seed=9), 0.75),
                   fbm_from_cholesky(grid, 0.75, 1, 1, seed=9)]
        f = tmp_path / "paths.csv"
        for ps in bundles:
            for workers in (1, 2, 3):
                ps.to_csv(f, workers)
                assert f.read_bytes() == _row_writer_csv(ps).encode()
        assert [p.name for p in tmp_path.iterdir()] == ["paths.csv"]  # no part
        with pytest.raises(ChildProcessError):  # every writer was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fault, reason", [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
         os.strerror(errno.ENOSPC)),
        (RuntimeError("formatter fault"), "exit status 255")])
    def test_failed_writer_raises_once_all_are_reaped(self, tmp_path,
                                                      monkeypatch, fault, reason):
        # the forked writers open their part by descriptor, the parent its
        # file by name: both children fail, the parent's block succeeds
        def open_failing_on_fd(file, *args, **kwargs):
            if isinstance(file, int):
                raise fault
            return open(file, *args, **kwargs)

        monkeypatch.setattr(fbm, "_kernel_threads", lambda: 3)
        monkeypatch.setattr(fbm, "open", open_failing_on_fd, raising=False)
        ps = generate_bm(TimeGrid(1.0, 4), 1, 3, seed=5)
        with pytest.raises(ChildProcessError, match=f"paths 1..1 of .*{reason}"):
            ps.to_csv(tmp_path / "paths.csv", 3)
        assert [p.name for p in tmp_path.iterdir()] == ["paths.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_blocks_capped_at_paths_and_cpus(self, tmp_path, monkeypatch):
        # 100 000 workers on 3 paths: one draw and one writer per block, at
        # most one block per path and per CPU
        draws, forks = [], []
        normal_block, fork = rng.SubstreamSampler.normal_block, os.fork
        monkeypatch.setattr(rng.SubstreamSampler, "normal_block",
                            lambda self, *a: draws.append(a) or normal_block(self, *a))
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        blocks = min(3, len(os.sched_getaffinity(0)))
        ps = fbm_from_kernel(generate_bm(TimeGrid(1.0, 8), 1, 3, seed=5,
                                         workers=100_000), 0.75)
        ps.to_csv(tmp_path / "paths.csv", 100_000)
        assert len(draws) == blocks and len(forks) == blocks - 1
        assert (tmp_path / "paths.csv").read_bytes() == _row_writer_csv(ps).encode()

    def test_immutability(self, coupled_paths_256):
        with pytest.raises(ValueError):
            coupled_paths_256.BH[0, 0, 0] = 1.0

    def test_coarsen_consistency(self, coupled_paths_fine):
        c = coarsen(coupled_paths_fine, 4)
        assert c.grid.n_steps == 512
        assert np.allclose(c.dB.sum(-1), coupled_paths_fine.dB.sum(-1))
        assert np.array_equal(c.BH[..., -1], coupled_paths_fine.BH[..., -1])

    def test_coarsened_bh_is_a_read_only_view(self, coupled_paths_fine):
        c = coarsen(coupled_paths_fine, 4)
        assert np.shares_memory(c.BH, coupled_paths_fine.BH)
        assert np.array_equal(c.BH, coupled_paths_fine.BH[..., ::4])
        assert not c.BH.flags.writeable
        with pytest.raises(ValueError):
            c.BH[0, 0, 1] = 1.0

    def test_b_derived_bitwise_from_increments(self, coupled_paths_256):
        ps = coupled_paths_256
        ref = np.zeros((ps.n_paths, ps.m, ps.grid.n_nodes))
        np.cumsum(ps.dB, axis=-1, out=ref[..., 1:])
        assert np.array_equal(ps.B, ref)
        ch = fbm_from_cholesky(TimeGrid(1.0, 8), 0.75, 1, 10, seed=0)
        assert ch.B is None

    def test_coarsened_b_is_cumsum_of_coarse_increments(self, coupled_paths_256):
        c = coarsen(coupled_paths_256, 4)
        ref = np.zeros((c.n_paths, c.m, c.grid.n_nodes))
        np.cumsum(c.dB, axis=-1, out=ref[..., 1:])
        assert np.array_equal(c.B, ref)

    @pytest.mark.parametrize("factor", [*range(1, 17), 256])
    def test_coarsened_increments_are_numpys_sums_bitwise(self, factor):
        # magnitudes 1e-8..1e8 make the order of the adds show; groups of
        # zeros of either sign check the sign of a zero sum
        gen = np.random.default_rng(factor)
        shape = (2, 3, 5 * factor)
        dB = gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 9, shape)
        dB[0, 0, :factor] = -0.0
        dB[0, 1, :factor] = 0.0
        dB[0, 1, :factor:2] = -0.0
        ps = fbm.PathSet(TimeGrid(1.0, 5 * factor), 3, 2, 0, dB=dB)
        got = coarsen(ps, factor).dB
        want = dB.reshape(2, 3, 5, factor).sum(-1)
        assert np.array_equal(got, want)
        if factor > 1:  # factor 1 returns the paths as they are
            assert got.tobytes() == want.tobytes()

    def test_coarsen_rejects_nondivisor(self, coupled_paths_256):
        with pytest.raises(GridMismatchError):
            coarsen(coupled_paths_256, 3)
