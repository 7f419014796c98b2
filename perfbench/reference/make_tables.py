"""Regenerate the benchmark's committed reference tables.

    PYTHONPATH=src python3 perfbench/reference/make_tables.py

Run from the repository root.  Writes, next to this file:

oracle_n48.json
    log p_n(t) at N = 48 for rho = 0.25 and 1.5 on a fixed 16 x 12 (n, t)
    grid that includes the edge states near n = N - 1, from the mpmath
    oracle (`oracle_decompose`) at 50 digits.  Each point also records
    whether the double-precision `conditional_density_exact_log` of the
    recording commit disagrees with the oracle by more than the tolerance
    (a known defect: the check reports it, but it does not make the run
    incorrect).
surface_check.json
    log densities at fixed points of the rho < 1 surface at N = 10^6 from
    the recording commit's regional evaluators, each with the label that
    `classify` gave it; a point that failed is recorded by its failure.
    The points cover every label, the D1/D2/D3 sub-regions of BL_xsigma,
    and T2 at |Delta| <= 8.  This pins the numbers of one commit; it is
    not a check of truth.  Re-record only in a change that alters these
    values on purpose and says so.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent.parent)]

import numpy as np  # noqa: E402

from psq import exact, subcritical  # noqa: E402
from psq.exact import ModelParams  # noqa: E402

from perfbench import adapters  # noqa: E402
from perfbench.workloads import judge  # noqa: E402

ORACLE_N = 48
ORACLE_DIGITS = 50
ORACLE_RHOS = (0.25, 1.5)
ORACLE_NS = (0, 1, 2, 3, 5, 8, 12, 16, 20, 24, 30, 36, 40, 44, 46, 47)
ORACLE_TS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
ORACLE_TOL = 1e-8

SURFACE_N = 10**6
SURFACE_RHOS = (0.25, 0.75)
SURFACE_GRID = 12
SURFACE_TOL = 1e-10
T2_XIS = (0.05, 0.2, 0.5)
T2_DELTAS = (-8.0, -4.0, -1.0, 0.0, 1.0, 4.0, 8.0)
BL_X_FRACTIONS = (0.35, 0.7, 0.9)  # of the vertical asymptote (1 - sqrt(rho))^(-1/2)
T1_XIS = (0.1, 0.3, 0.6)


def oracle_table() -> dict:
    rows = []
    for rho in ORACLE_RHOS:
        params = ModelParams(ORACLE_N, rho)
        dec = exact.oracle_decompose(params, digits=ORACLE_DIGITS)
        spec = exact.spectral_decompose(exact.build_generator(params), params)
        known_count = 0
        for n in ORACLE_NS:
            for t in ORACLE_TS:
                ref = float(exact.oracle_conditional_log(dec, n, t))
                kind, _, got = judge(
                    lambda: adapters.signed_log(*exact.conditional_density_exact_log(spec, n, t))
                )
                known = kind is not None or abs(got - ref) > ORACLE_TOL
                rows.append([rho, n, t, ref, known])
                known_count += known
        total = len(ORACLE_NS) * len(ORACLE_TS)
        print(f"oracle rho={rho}: {total - known_count}/{total} agree today")
    return {
        "population": ORACLE_N,
        "digits": ORACLE_DIGITS,
        "tolerance_log": ORACLE_TOL,
        "columns": ["rho", "n", "t", "oracle_log_density", "known_defect"],
        "points": rows,
    }


def surface_points(rho: float) -> list[tuple[int, float]]:
    big_n = SURFACE_N
    curves = subcritical.critical_curves(rho)
    t_max = 3.0 * big_n * curves.tau_star(0.9)
    # cell centres of the benchmark's seeded grid
    us = (np.arange(SURFACE_GRID) + 0.5) / SURFACE_GRID
    ns = np.rint(np.expm1(us * math.log(big_n))).astype(int)
    ts = np.exp(math.log(0.5) + us * math.log(t_max / 0.5))
    pts = [(int(n), float(t)) for n in ns for t in ts]
    # T2 across |Delta| <= 8, where a new layer solver must reproduce these values
    for xi in T2_XIS:
        for delta in T2_DELTAS:
            pts.append((int(xi * big_n), big_n * curves.tau_star(xi) + delta * big_n**0.75))
    # BL_xsigma in D1, D2 and D3 around the two separating curves
    for frac in BL_X_FRACTIONS:
        x = frac * (1.0 - math.sqrt(rho)) ** -0.5
        s12 = subcritical.d1d2_curve_sigma(x, rho)
        s23 = subcritical.d2d3_curve_sigma(x, rho)
        for sigma in (0.5 * s12, 0.5 * (s12 + s23), 2.0 * s23):
            pts.append((int(round(x * math.sqrt(big_n))), sigma * big_n**0.75))
    # T1 on the first critical curve
    for xi in T1_XIS:
        pts.append((int(xi * big_n), big_n * curves.tau0(xi)))
    return pts


def surface_table() -> dict:
    rows = []
    coverage = Counter()
    for rho in SURFACE_RHOS:
        params = ModelParams(SURFACE_N, rho)
        for n, t in surface_points(rho):
            label = subcritical.classify(n, t, params)
            if label.kind == "T2" and abs(adapters.t2_delta(n, t, params)) > 8.0:
                continue
            kind, _, value = judge(adapters.EVALUATORS[label.kind], n, t, params)
            rows.append([rho, n, t, label.kind, kind if kind is not None else value])
            coverage[label.kind] += 1
            if label.sub:
                coverage[f"{label.kind}.{label.sub}"] += 1
            if kind is not None:
                coverage[f"failed:{kind}"] += 1
    print("surface table coverage:", dict(sorted(coverage.items())))
    wanted = set(adapters.EVALUATORS) | {f"BL_xsigma.{s}" for s in ("D1", "D2", "D3")}
    missing = wanted - set(coverage)
    if missing:
        raise SystemExit(f"surface table misses {sorted(missing)}")
    return {
        "population": SURFACE_N,
        "tolerance_log": SURFACE_TOL,
        "columns": ["rho", "n", "t", "label", "log_density_or_failure"],
        "points": rows,
    }


def write_table(name: str, table: dict) -> None:
    """JSON with one point per line, so a re-recording diffs point by point."""
    head = json.dumps({k: v for k, v in table.items() if k != "points"}, indent=1)
    rows = ",\n  ".join(json.dumps(row) for row in table["points"])
    with open(HERE / name, "w", encoding="utf-8") as fh:
        fh.write(f'{head[:-2]},\n "points": [\n  {rows}\n ]\n}}\n')
    print(f"wrote {HERE / name}")


def main() -> None:
    write_table("oracle_n48.json", oracle_table())
    write_table("surface_check.json", surface_table())


if __name__ == "__main__":
    main()
