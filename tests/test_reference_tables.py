"""The benchmark's two reference checks, run as tests.

`perfbench/reference` holds a 336-point table of the asymptotic surface at
N = 10^6, re-evaluated through each point's recorded label, and a table of
the exact layer at N = 48 against the 50-digit mpmath oracle.  Each check
lists the points that disagree and are not recorded as known defects; a
change to an evaluator that moves a table point shows here, not only in a
benchmark run.
"""

from __future__ import annotations

import pytest

from perfbench import workloads


@pytest.mark.parametrize("check", [workloads.check_surface_table, workloads.check_exact_oracle])
def test_reference_table_has_no_unexpected_disagreement(check) -> None:
    result = check()
    assert result.checked > 0
    assert result.unexpected == []
