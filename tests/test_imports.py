"""What importing psq loads, checked in fresh interpreters.

The asymptotic modules need neither scipy nor multiprecision arithmetic:
importing them loads no scipy module and not mpmath, and the exact solver
and the oracle import scipy.linalg and mpmath on first use.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_asymptotic_import_loads_no_lapack_or_mpmath() -> None:
    # no scipy module at all: scipy.special alone takes about 0.3 s to import
    loaded = _fresh(
        "import sys\n"
        "import psq, psq.subcritical, psq.supercritical, psq.infinite\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'mpmath' or m.split('.')[0] == 'scipy'))"
    )
    assert loaded == "[]"


def test_exact_and_oracle_import_on_first_use() -> None:
    out = _fresh(
        "from psq.exact import ModelParams, build_generator, oracle_decompose,"
        " spectral_decompose, unit_mass_residual\n"
        "p = ModelParams(48, 0.5)\n"
        "spec = spectral_decompose(build_generator(p), p)\n"
        "dec = oracle_decompose(ModelParams(8, 0.5), digits=20)\n"
        "print(unit_mass_residual(spec) < 1e-12, len(dec.eigenvalues))"
    )
    assert out == "True 8"
