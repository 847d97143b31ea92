"""Property tests of the kernel table (need hypothesis)."""

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
