"""Property tests of the kernel table and the node regression (need hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fbmcontrol import fbm  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 70), min_size=1, max_size=4),
       threads=st.integers(1, 2), block_rows=st.integers(1, 16),
       H=st.sampled_from([0.55, 0.75, 0.95]))
def test_unit_table_is_bitwise_independent_of_growth_threads_and_blocks(
        sizes, threads, block_rows, H):
    # grow the table through random sizes on 1-2 threads and 1-16 block
    # rows; every stage equals the same rows of a direct default build
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbm, "_unit_tables", {})
        reference = fbm._unit_table(H, max(sizes))
        mp.setattr(fbm, "_unit_tables", {})
        mp.setattr(fbm, "_kernel_threads", lambda: threads)
        mp.setattr(fbm, "KERNEL_BLOCK_ROWS", block_rows)
        for n in sizes:
            table = fbm._unit_table(H, n)
            assert np.array_equal(table[:n + 1, :n], reference[:n + 1, :n])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_paths=st.integers(8, 60),
       n_fit=st.integers(1, 5),
       dist=st.sampled_from(["normal", "uniform", "exponential"]),
       loc=st.floats(-10, 10), spread=st.floats(1e-3, 1e3),
       coef=st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_regression_reproduces_per_node_quadratics(seed, n_paths, n_fit, dist,
                                                   loc, spread, coef):
    # at ridge 0 every per-node quadratic in X is in the span of the basis
    from fbmcontrol import adjoint
    rng = np.random.default_rng(seed)
    X = loc + spread * getattr(rng, dist)(size=(n_paths, n_fit))
    a, b, c = (w * rng.uniform(0.5, 1.5, n_fit) for w in coef)
    y = a + b * X + c * X ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adjoint, "REGRESSION_RIDGE", 0.0)
        reg = adjoint.NodeRegression.fit(X)
        fitted = reg.predict(reg.coeffs(y))
    assert np.abs(fitted - y).max() <= 1e-9 * (1.0 + np.abs(y).max())
