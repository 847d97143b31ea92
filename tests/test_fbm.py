"""Generators and kernels against the analytic covariance law."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from fbmcontrol import fbm
from fbmcontrol.errors import DomainError, GridMismatchError
from fbmcontrol.fbm import (Hurst, PathSet, TimeGrid, coarsen, fbm_covariance,
                            fbm_from_cholesky, fbm_from_kernel, generate_bm,
                            kappa_h, kernel_weights, kernel_z, kernel_z_closed)

# frozen via an independent high-precision (mpmath) evaluation
KAPPA_H_075 = 1.0696446350319903
KAPPA_H_06 = 1.0760051841318072
KAPPA_H_09 = 0.81122064814335251
KERNEL_Z_1_05_075 = 0.93759196369805723


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


class TestKernelZ:
    def test_domain_errors(self):
        for (t, s) in [(1.0, 1.0), (1.0, 2.0), (1.0, 0.0), (1.0, -0.5)]:
            with pytest.raises(DomainError):
                kernel_z(t, s, 0.75)

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
        val, _ = quad(lambda s: kernel_z(t, s, H) ** 2, 0, t,
                      epsabs=1e-13, epsrel=1e-10, limit=400, points=[0.0, t])
        assert val == pytest.approx(t ** (2 * H), rel=1e-6)


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
        monkeypatch.setattr(fbm, "_unit_rows", lambda H, k0, k1: (
            computed.append(k1 - k0), unit_rows(H, k0, k1))[1])
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

    def test_csv_bytes_match_reference_loop(self, tmp_path):
        ps = generate_bm(TimeGrid(1.0, 4), 2, 3, seed=5)  # BH is None: NaN column
        f = tmp_path / "paths.csv"
        ps.to_csv(f)
        t = ps.grid.nodes
        lines = ["path,dim,node,t,B,BH\n"]
        for p in range(ps.n_paths):
            for d in range(ps.m):
                for k in range(ps.grid.n_nodes):
                    lines.append(f"{p},{d},{k},{t[k]:.17g},{ps.B[p, d, k]:.17g},"
                                 f"{float('nan'):.17g}\n")
        assert f.read_bytes() == "".join(lines).encode()

    def test_npz_round_trip(self, tmp_path):
        grid = TimeGrid(1.0, 8)
        ps = fbm_from_kernel(generate_bm(grid, 2, 5, seed=4), 0.6)
        f = tmp_path / "paths.npz"
        ps.save_npz(f)
        back = PathSet.load_npz(f)
        assert np.array_equal(back.dB, ps.dB)
        assert np.array_equal(back.BH, ps.BH)
        assert back.hurst.value == ps.hurst.value

    def test_immutability(self, coupled_paths_256):
        with pytest.raises(ValueError):
            coupled_paths_256.BH[0, 0, 0] = 1.0

    def test_coarsen_consistency(self, coupled_paths_fine):
        c = coarsen(coupled_paths_fine, 4)
        assert c.grid.n_steps == 512
        assert np.allclose(c.dB.sum(-1), coupled_paths_fine.dB.sum(-1))
        assert np.array_equal(c.BH[..., -1], coupled_paths_fine.BH[..., -1])

    def test_coarsen_rejects_nondivisor(self, coupled_paths_256):
        with pytest.raises(GridMismatchError):
            coarsen(coupled_paths_256, 3)
