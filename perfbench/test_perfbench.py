"""Tests of the benchmark's own code: the label -> evaluator adapters, the
seeded inputs, and the span tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math

import pytest

from psq import infinite, specfun, subcritical, supercritical
from psq.exact import ModelParams
from psq.supercritical import XiTauPoint

from perfbench import adapters, workloads
from perfbench.spans import Tracer, layer_stats

BIG_N = 10**6
P25 = ModelParams(BIG_N, 0.25)


def test_every_label_has_an_evaluator_and_a_layer():
    assert set(adapters.EVALUATORS) == set(subcritical.REGIME_KINDS)
    assert set(adapters.LAYER_OF_LABEL) == set(subcritical.REGIME_KINDS)


@pytest.mark.parametrize("xi, delta", [(0.2, 2.0), (0.05, -3.5), (0.5, -1.0)])
def test_t2_adapter_maps_t_to_delta(xi, delta):
    n = int(xi * BIG_N)
    t = BIG_N * subcritical.critical_curves(0.25).tau_star(n / BIG_N) + delta * BIG_N**0.75
    assert adapters.t2_delta(n, t, P25) == pytest.approx(delta, abs=1e-9)
    assert subcritical.classify(n, t, P25).kind == "T2"
    _, direct = subcritical.t2_evaluate(n / BIG_N, delta, P25)
    kind, value = adapters.eval_t2(n, t, P25)
    assert kind is None
    assert value == pytest.approx(direct.log_value(BIG_N), abs=1e-9)


@pytest.mark.parametrize("xi", [0.1, 0.3])
def test_t1_adapter_takes_log_of_linear_density(xi):
    n = int(xi * BIG_N)
    t = BIG_N * subcritical.critical_curves(0.25).tau0(xi)
    assert subcritical.classify(n, t, P25).kind == "T1"
    direct = subcritical.t1_evaluate(XiTauPoint.from_indices(n, t, BIG_N), P25)
    assert adapters.eval_t1(n, t, P25) == (None, math.log(direct))


@pytest.mark.parametrize("n, t", [(500_000, 1000.0), (900_000, 50_000.0)])
def test_r1_adapter_goes_through_xi_tau_expansion(n, t):
    assert subcritical.classify(n, t, P25).kind == "R1"
    direct = supercritical.xi_tau_expansion(XiTauPoint.from_indices(n, t, BIG_N), P25)
    assert adapters.eval_r1(n, t, P25) == (None, math.log(direct.value))


@pytest.mark.parametrize("n, t", [(0, 0.5), (3, 2.0), (8, 7.5)])
def test_corner_adapter_goes_through_invert_density(n, t):
    assert subcritical.classify(n, t, P25).kind == "CornerO1"
    direct = infinite.invert_density(n, t, 0.25)
    assert adapters.eval_corner(n, t, P25) == (None, math.log(direct))


def test_outcome_kinds():
    assert adapters.log_of_linear(-1e-3)[0] == adapters.NONPOSITIVE
    assert adapters.log_of_linear(0.0)[0] == adapters.NONPOSITIVE
    assert adapters.log_of_linear(math.inf)[0] == adapters.NONFINITE
    assert adapters.signed_log(-1, 0.5)[0] == adapters.SIGN
    assert adapters.signed_log(1, -math.inf)[0] == adapters.NONFINITE
    assert adapters.signed_log(1, -700.0) == (None, -700.0)


def test_judge_separates_psq_errors_from_raw_errors():
    def raw():
        raise ValueError("math domain error")

    def typed():
        raise subcritical.OutOfRegion("outside")

    assert workloads.judge(raw)[:2] == ("ValueError", True)
    assert workloads.judge(typed)[:2] == ("OutOfRegion", False)


def _inputs(workload) -> list:
    if isinstance(workload, workloads.AsymSurface):
        return [grid for _, grid in workload.grids]
    if isinstance(workload, workloads.CornerCurves):
        return workload.points
    return [(cond, uncond) for _, cond, uncond in workload.configs]


@pytest.mark.parametrize("cls", [workloads.ExactLadder, workloads.AsymSurface, workloads.CornerCurves])
def test_same_seed_same_inputs(cls):
    kit = workloads.Kit.build(cls.calls, None)
    first, again, other = cls(7, kit), cls(7, kit), cls(8, kit)
    assert _inputs(first) == _inputs(again)
    assert _inputs(first) != _inputs(other)


def test_stratified_offsets_fill_every_slice_of_every_line():
    import numpy as np

    offsets = workloads.stratified(np.random.default_rng(5), 4, 17)
    assert offsets.shape == (4, 17)
    for line in offsets:
        assert sorted((line * 17).astype(int)) == list(range(17))


def test_tally_counts_only_unrecorded_failures_as_unexpected():
    tally = workloads.Tally()
    tally.failures[("exact.cond_log", adapters.SIGN, False)] += 3
    tally.failures[("subcritical.T2", "ValueError", True)] += 2
    tally.failures[("exact.cond_log", adapters.NONFINITE, False)] += 1
    tally.failures[("subcritical.R3", "ValueError", True)] += 1
    assert tally.failed == 7
    assert tally.raw_errors == 3
    assert tally.unexpected == 2


def test_jittered_nodes_stay_in_their_cells():
    import numpy as np

    nodes = workloads.jittered(np.random.default_rng(3), 0.25, 80.0, 56, log=True)
    edges = np.geomspace(0.25, 80.0, 57)
    assert np.all((edges[:-1] <= nodes) & (nodes <= edges[1:]))


def test_tracer_counts_nodes_and_derives_self_time():
    tracer = Tracer()
    with tracer.installed():
        assert subcritical.tanh_sinh is not specfun.tanh_sinh
        evals = []

        def f(w):
            evals.append(w)
            return 1.0 / (1.0 + w * w)

        value = subcritical.quad_to_infinity(f, 0.0, 1e-10)
        assert value == pytest.approx(math.pi / 2, rel=1e-9)
    stats = layer_stats(tracer, traced_passes=1)
    assert stats["specfun.quad_to_infinity"].calls == 1
    assert stats["specfun.tanh_sinh"].calls == 1
    assert stats["specfun.tanh_sinh"].count == len(evals)
    outer = stats["specfun.quad_to_infinity"]
    assert outer.self_s == pytest.approx(outer.inclusive_s - stats["specfun.tanh_sinh"].inclusive_s)


def test_tracer_restores_modules_and_passes_reentry_through():
    original = subcritical.tanh_sinh
    tracer = Tracer()
    with tracer.installed():
        # a reversed interval makes tanh_sinh call itself once
        specfun.tanh_sinh(lambda w: w, 1.0, 0.0)
    assert subcritical.tanh_sinh is original
    assert layer_stats(tracer, 1)["specfun.tanh_sinh"].calls == 1


def test_tracer_records_errors():
    tracer = Tracer()
    with tracer.installed(), pytest.raises(specfun.MaxDepthExceeded):
        specfun.tanh_sinh(lambda w: math.sin(1.0 / w), 1e-9, 1.0, max_depth=2)
    stats = layer_stats(tracer, 1)
    assert stats["specfun.tanh_sinh"].errors == {"MaxDepthExceeded": 1.0}
