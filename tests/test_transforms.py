"""Deterministic operators: norm, transfer operator, transfer identity."""

import numpy as np
import pytest
from scipy.fft import next_fast_len

from fbmcontrol import sde, transforms
from fbmcontrol.fbm import TimeGrid, coarsen, kappa_h
from fbmcontrol.transforms import (GridFunction, TransferReport, gamma_star,
                                   gamma_star_at, isometry_check, phi_norm_sq,
                                   transfer_check)


def gf(n, fn, T=1.0):
    return GridFunction.from_callable(TimeGrid(T, n), fn)


class TestPhiNormSq:
    def test_zero_function(self):
        assert phi_norm_sq(gf(64, lambda t: 0 * t), 0.75) == 0.0

    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
    def test_constant_one_gives_T_pow_2H(self, H):
        # analytic double integral of phi over [0,T]^2 equals T^{2H}
        assert phi_norm_sq(gf(256, lambda t: np.ones_like(t)), H) == \
            pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
    def test_linear_function(self, H):
        # Var(int_0^1 t dB^H) = 1/(2H+2): derived from the covariance law
        val = phi_norm_sq(gf(512, lambda t: t), H)
        assert val == pytest.approx(1.0 / (2 * H + 2), rel=2e-4)

    def test_quadratic_scaling(self):
        f = gf(128, lambda t: np.sin(3 * t))
        a = phi_norm_sq(f, 0.7)
        f3 = GridFunction(f.grid, 3.0 * f.values)
        assert phi_norm_sq(f3, 0.7) == pytest.approx(9 * a, rel=1e-12)


class TestGammaStar:
    def test_zero_in_zero_out(self):
        out = gamma_star(gf(64, lambda t: 0 * t), 0.75)
        assert np.all(out.values == 0.0)

    def test_linearity(self):
        grid = TimeGrid(1.0, 128)
        rng = np.random.default_rng(5)
        f = GridFunction(grid, rng.standard_normal(129))
        g = GridFunction(grid, rng.standard_normal(129))
        a, b = 1.7, -0.4
        lhs = gamma_star(GridFunction(grid, a * f.values + b * g.values), 0.75)
        rhs = a * gamma_star(f, 0.75).values + b * gamma_star(g, 0.75).values
        assert np.allclose(lhs.values, rhs, atol=1e-12)

    def test_constant_reproduces_kernel_row(self):
        # Gamma* 1 on [0,T] equals Z_H(T, .): forced by the transfer identity
        from fbmcontrol.fbm import kernel_z_closed
        H = 0.75
        out = gamma_star(gf(512, lambda t: np.ones_like(t)), H)
        t = out.grid.nodes
        mid = slice(32, 480)
        expected = kernel_z_closed(1.0, t[mid], H)
        assert np.allclose(out.values[mid], expected, rtol=2e-3)

    def test_point_evaluator_matches_node_values(self):
        H = 0.8
        f = gf(256, lambda t: np.sin(2 * t) + 1.0)
        out = gamma_star(f, H)
        for k in (32, 100, 200):
            assert gamma_star_at(f, H, f.grid.nodes[k]) == pytest.approx(
                out.values[k], rel=1e-12)

    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("name,fn", [("one", lambda t: np.ones_like(t)),
                                         ("t", lambda t: t)])
    def test_isometry_one_percent(self, H, name, fn):
        rep = isometry_check(gf(1024, fn), H)
        assert rep["rel_err"] <= 1e-2


class TestConvolutionAgainstDirectSums:
    """The FFT convolutions of phi_norm_sq and gamma_star against O(n^2) sums."""

    @staticmethod
    def f(n):
        return gf(n, lambda t: np.exp(-t) * (1.0 + np.sin(5 * t)) + 0.3)

    @pytest.mark.parametrize("H", [0.6, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 17, 256, 2048])
    def test_phi_norm_sq(self, n, H):
        f = self.f(n)
        g = transforms._increment_covariance_kernel(n, f.grid.dt, H)
        fm = f.cell_midpoints()
        ref = g[0] * (fm @ fm) + 2 * sum(g[l] * (fm[:-l] @ fm[l:])
                                         for l in range(1, n))
        assert abs(phi_norm_sq(f, H) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("H", [0.6, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 17, 256, 2048])
    def test_gamma_star(self, n, H):
        f = self.f(n)
        alpha = H - 0.5
        nodes = f.grid.nodes
        S = nodes ** alpha * f.values
        D = np.diff(S)
        I0, I1 = transforms._lag_kernels(n, f.grid.dt, alpha)
        ref = np.zeros(n + 1)
        for k in range(1, n):
            ref[k] = alpha * kappa_h(H) * nodes[k] ** (-alpha) \
                * (I0[:n - k] @ S[k:n] + I1[:n - k] @ D[k:])
        ref[0] = gamma_star_at(f, H, 0.5 * f.grid.dt)
        out = gamma_star(f, H).values
        assert np.all(np.abs(out - ref) <= 1e-13 * np.abs(ref))

    def test_fft_length_matches_fftconvolve_padding(self):
        # the padding scipy.signal.fftconvolve uses, so the bits match it
        for n in range(1, 4097):
            assert transforms._fft_length(n) == next_fast_len(n, real=True)


class TestTransferCheck:
    def test_zero_function(self, coupled_paths_256):
        f = GridFunction.from_callable(coupled_paths_256.grid, lambda t: 0 * t)
        rep = transfer_check(f, coupled_paths_256)
        assert rep.var_lhs == 0.0 and rep.var_rhs == 0.0

    def test_constant_variances(self, coupled_paths_256):
        # Var int_0^1 dB^H = 1 on both routes, up to MC + discretization
        f = GridFunction.from_callable(coupled_paths_256.grid,
                                       lambda t: np.ones_like(t))
        rep = transfer_check(f, coupled_paths_256)
        se = np.sqrt(2.0 / coupled_paths_256.n_paths)
        assert abs(rep.var_lhs - 1.0) < 4 * se + 0.02
        assert abs(rep.var_rhs - 1.0) < 4 * se + 0.02

    def test_correlation_high_and_refining(self, coupled_paths_fine):
        corrs = []
        for fac in (4, 2, 1):
            p = coarsen(coupled_paths_fine, fac)
            f = GridFunction.from_callable(p.grid,
                                           lambda t: np.sin(2 * np.pi * t) + t)
            corrs.append(transfer_check(f, p).correlation)
        assert corrs[1] >= 0.99  # n = 1024
        assert corrs[0] < corrs[1] < corrs[2]

    # 3 000 paths: no multiple of any block; 1 000 blocks are wider than 2 048
    @pytest.mark.parametrize("rows", [1, 7, 64, 1000])
    @pytest.mark.parametrize("fac", [1, 2])
    def test_row_blocks_match_whole_product_bitwise(self, coupled_paths_fine,
                                                    rows, fac, monkeypatch):
        p = coarsen(coupled_paths_fine, fac)
        f = GridFunction.from_callable(p.grid, lambda t: np.sin(2 * np.pi * t) + t)
        lhs = np.diff(p.BH[:, 0, :], axis=-1) @ f.values[:-1]
        rhs = p.dB[:, 0, :] @ gamma_star(f, p.hurst).values[:-1]
        whole = TransferReport(float(np.corrcoef(lhs, rhs)[0, 1]),
                               float(lhs.var()), float(rhs.var()))
        monkeypatch.setattr(sde, "ROW_CHUNK", rows)
        assert transfer_check(f, p) == whole

