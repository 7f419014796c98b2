"""Every point of the benchmark's timed asymptotic surface gives a density.

`perfbench.workloads.AsymSurface` draws a jittered (n, t) grid at
N = 10^6 for rho = 0.25 and 0.75 from its seed.  One pass over the grids of
seeds 1-10, each point labelled by `classify` and sent to its region's
evaluator through `perfbench.adapters.EVALUATORS`, must fail on no point:
no PSQError, no raw error, and a finite log density (the benchmark's own
judge).  The test reads perfbench and changes nothing there.
"""

from __future__ import annotations

from collections import Counter

from perfbench import adapters, workloads
from psq import subcritical


def test_timed_surface_has_no_failed_point() -> None:
    failures = Counter()
    points = 0
    for seed in range(1, 11):
        for params, grid in workloads.AsymSurface(seed, None).grids:
            for n, t in grid:
                label = subcritical.classify(n, t, params)
                kind, _, _ = workloads.judge(adapters.EVALUATORS[label.kind], n, t, params)
                points += 1
                if kind is not None:
                    failures[(workloads.surface_layer(label), kind)] += 1
    assert points > 0
    assert failures == Counter()
