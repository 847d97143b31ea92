"""The numpy ports of scipy.special against scipy itself, double for double.

Every comparison is ``==`` on the doubles: the ports exist so that the kernel
table is the same bytes as when it was built on scipy's special functions.
"""

import numpy as np
import pytest
import scipy.special as sp

from fbmcontrol import _special, fbm
from fbmcontrol.fbm import TimeGrid, kernel_weights


def _hurst_samples() -> np.ndarray:
    """H dense in (1/2, 1) and within 1e-15 of both ends, where 2 - 2H
    takes Gamma's branch for x < 1e-9."""
    near = np.geomspace(1e-15, 1e-3, 600)
    H = np.concatenate([np.linspace(0.5, 1.0, 4001)[1:-1], 0.5 + near, 1.0 - near,
                        np.nextafter(0.5, 1.0) + np.arange(4) * 2.0 ** -53,
                        np.nextafter(1.0, 0.0) - np.arange(4) * 2.0 ** -53])
    assert np.all((0.5 < H) & (H < 1.0))
    return H


H_SAMPLES = _hurst_samples()
RULE_PAIRS = (lambda a: (a, -a), lambda a: (0.0, -a), lambda a: (a, 0.0))


def _equal(got, ref) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(np.all(got == ref))


class TestPortsMatchScipy:
    @pytest.mark.parametrize("arg", [lambda H: 1.5 - H, lambda H: H + 0.5,
                                     lambda H: 2.0 - 2.0 * H],
                             ids=["1.5-H", "H+0.5", "2-2H"])
    def test_gamma_at_the_kappa_arguments(self, arg):
        x = arg(H_SAMPLES)
        assert _equal([_special.gamma(float(v)) for v in x], sp.gamma(x))

    def test_gamma_on_every_branch(self):
        # the small-x branch, the rational branch on both recurrences, the
        # integers, and Stirling's series past 33
        x = np.concatenate([np.geomspace(1e-300, 1e-9, 200),
                            np.linspace(0.0, 143.0, 20_001)[1:],
                            np.arange(1.0, 143.0), [33.0, np.nextafter(33.0, 34.0)]])
        assert _equal([_special.gamma(float(v)) for v in x], sp.gamma(x))

    def test_rgamma(self):
        x = np.concatenate([np.linspace(0.0, 70.0, 20_001)[1:],
                            np.arange(1.0, 70.0), [4.0, np.nextafter(4.0, 5.0)]])
        assert _equal([_special.rgamma(float(v)) for v in x], sp.rgamma(x))

    @pytest.mark.parametrize("args", [lambda a: (1 + a, 1 - a),
                                      lambda a: (np.ones_like(a), 1 - a),
                                      lambda a: (1 + a, np.ones_like(a))],
                             ids=["1+a,1-a", "1,1-a", "1+a,1"])
    def test_beta_at_the_rule_arguments(self, args):
        p, q = args(H_SAMPLES - 0.5)
        got = [_special.beta(float(x), float(y)) for x, y in zip(p, q)]
        assert _equal(got, sp.beta(p, q))

    def test_beta_on_both_products(self):
        # wide arguments reach both orders of beta's final product
        a, b = np.random.default_rng(5).uniform(0.01, 70.0, (2, 40_000))
        got = [_special.beta(float(x), float(y)) for x, y in zip(a, b)]
        assert _equal(got, sp.beta(a, b))

    def test_beta_is_not_the_gamma_ratio(self):
        # the reason beta is ported on its own: at (1, 1 - a) the ratio
        # Gamma(1) Gamma(1 - a) / Gamma(2 - a) is off in the last bit
        b = 1.0 - (H_SAMPLES - 0.5)
        ratio = [_special.gamma(1.0) * _special.gamma(y) / _special.gamma(1.0 + y)
                 for y in b]
        assert not _equal(ratio, sp.beta(1.0, b))

    def test_the_whole_comb_table(self):
        n = np.arange(fbm.KERNEL_SERIES_TERMS)
        got = _special.comb(n[:, None], n)
        assert _equal(got, sp.comb(n[:, None], n))
        assert np.all(got[np.triu_indices(len(n), 1)] == 0.0)

    @pytest.mark.parametrize("degree", [3, 4])
    @pytest.mark.parametrize("pair", RULE_PAIRS, ids=["a,-a", "0,-a", "a,0"])
    def test_eval_jacobi_at_the_rule_pairs(self, degree, pair):
        # _gauss_jacobi evaluates P_4 and P_3 of the pair and P_3 of the
        # pair plus one, at nodes in (-1, 1)
        x = np.linspace(-1.0, 1.0, 41)
        for H in H_SAMPLES[::40]:
            alpha, beta = pair(H - 0.5)
            for al, be in ((alpha, beta), (alpha + 1, beta + 1)):
                assert _equal(_special.eval_jacobi(degree, al, be, x),
                              sp.eval_jacobi(degree, al, be, x))

    @pytest.mark.parametrize("call", [
        lambda: _special.gamma(0.0), lambda: _special.gamma(-0.5),
        lambda: _special.gamma(float("nan")), lambda: _special.gamma(150.0),
        lambda: _special.rgamma(-1.0), lambda: _special.beta(-0.5, 1.0),
        lambda: _special.binom(3.0, 4), lambda: _special.binom(3.0, 0.5),
        lambda: _special.comb(np.array([3.0]), np.array([1.0])),
        lambda: _special.eval_jacobi(1, 0.1, 0.1, np.zeros(2)),
    ], ids=["gamma0", "gamma-neg", "gamma-nan", "gamma-big", "rgamma-neg",
            "beta-neg", "binom-k>n", "binom-frac", "comb-float", "jacobi-deg1"])
    def test_outside_the_ported_branches_raises(self, call):
        with pytest.raises(ValueError):
            call()


def _clear_caches() -> None:
    for cached in (fbm._kappa, fbm._binomial_weights, fbm._smooth_factor):
        cached.cache_clear()


def _kernel_bits(H: float, n_steps: int) -> list[bytes]:
    """The bytes of H's cell rules and of its unit table to ``n_steps``,
    built from nothing cached."""
    _clear_caches()
    rules = fbm._cell_rules(H)
    table = np.zeros((n_steps + 1, n_steps))
    fbm._unit_rows(rules, table, 0)
    R = rules.R
    arrays = [R.a, R.kH, R.h_over_k, *R.gauss, *R.conn, *rules.single,
              *rules.first, *rules.diagonal, *rules.interior, table]
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


class TestKernelBitsMatchScipyBuild:
    """The kernel built on the ports against the kernel built on scipy."""

    @pytest.fixture
    def scipy_special(self, monkeypatch):
        def use():
            for name, fn in (("gamma_fn", sp.gamma), ("beta_fn", sp.beta),
                             ("comb", sp.comb), ("eval_jacobi", sp.eval_jacobi)):
                monkeypatch.setattr(fbm, name, fn)
        yield use
        monkeypatch.undo()
        _clear_caches()

    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9, 0.95, 0.99])
    def test_rules_and_unit_table(self, H, scipy_special):
        ports = _kernel_bits(H, 64)
        scipy_special()
        assert _kernel_bits(H, 64) == ports

    def test_off_power_of_two_grid(self, scipy_special, monkeypatch):
        grid = TimeGrid(2.0, 300)
        _clear_caches()
        monkeypatch.setattr(fbm, "_unit_tables", {})
        ports = kernel_weights(grid, 0.9).tobytes()
        scipy_special()
        _clear_caches()
        monkeypatch.setattr(fbm, "_unit_tables", {})
        assert kernel_weights(grid, 0.9).tobytes() == ports
