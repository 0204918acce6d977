import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr

import arcfdr
from arcfdr import simulate
from arcfdr.normal import ndtr
from arcfdr.simulate import GaussianSetupConfig, generate_gaussian_trial, run_trials, trial_rng

GRID = np.linspace(-37.5, 38.0, 300_001)


def test_relative_error_against_scipy():
    want = scipy_ndtr(GRID)
    at = want >= 1e-300
    got = ndtr(GRID[at])
    assert np.max(np.abs(got - want[at]) / want[at]) <= 1e-13


def test_ulps_against_scipy_on_the_body():
    z = GRID[(GRID >= -10.0) & (GRID <= 6.0)]
    want = scipy_ndtr(z)
    assert np.max(np.abs(ndtr(z) - want) / np.spacing(want)) <= 16


def test_nondecreasing_with_a_half_at_zero():
    assert np.all(np.diff(ndtr(GRID)) >= 0.0)
    assert ndtr(0.0) == 0.5 and ndtr(-0.0) == 0.5


def test_special_values_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndtr(np.array([-math.inf, math.inf, math.nan, -1e300, 1e300, -1e200, 1e200]))
        assert ndtr(1e300) == 1.0 and ndtr(-1e300) == 0.0
    assert got[0] == 0.0 and got[1] == 1.0 and math.isnan(got[2])
    np.testing.assert_array_equal(got[3:], [0.0, 1.0, 0.0, 1.0])


def test_scalar_in_scalar_out():
    assert np.ndim(ndtr(1.5)) == 0 and float(ndtr(1.5)) == float(ndtr(np.array([1.5]))[0])


def test_each_value_depends_on_its_own_input_alone():
    z = np.random.default_rng(0).standard_normal((7, 300)) * 4.0
    whole = ndtr(z)
    for row, out in zip(z, whole):
        assert ndtr(row).tobytes() == out.tobytes()
        assert all(ndtr(v) == o for v, o in zip(row[:20], out[:20]))


@pytest.mark.parametrize("lo, hi, tol", [(-37.5, -10.0, 3e-13), (-10.0, 0.0, 3e-14),
                                         (0.0, 8.3, 1e-15)])
def test_relative_error_against_mpmath(lo, hi, tol):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    z = np.linspace(lo, hi, 401)
    want = np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in z])
    assert np.max(np.abs(ndtr(z) - want) / want) <= tol


@pytest.mark.parametrize("p_from_z", [False, True])
def test_a_cells_rows_are_its_trials(monkeypatch, p_from_z):
    """run_trials scores a cell's m x n statistics in one pass; each row is
    the trial generate_gaussian_trial gives on the same substream, bit for
    bit."""
    cells = []

    class Kept(simulate._Cell):
        def __init__(self, *args):
            super().__init__(*args)
            cells.append(self)

    monkeypatch.setattr(simulate, "_Cell", Kept)
    cfg = GaussianSetupConfig(n=200, m=4, seed=3, pi_a=0.3, p_from_z=p_from_z)
    _, truths = run_trials(cfg, ["oe-bh"])
    (cell,) = cells
    for i, truth in enumerate(truths):
        trial = generate_gaussian_trial(cfg, trial_rng(cfg.seed, i))
        assert cell.evalues[i].tobytes() == trial.evalues.tobytes()
        assert cell.pvalues[i].tobytes() == trial.pvalues.tobytes()
        assert truth == trial.truth


# what the subprocess runs: everything of the streaming and simulation paths,
# then one PRDS factor, the one solve that reads scipy's inverse of Phi
_BOUNDARY = """
import io, json, sys
import arcfdr, arcfdr.cli, arcfdr.oracles, arcfdr.simulate
from arcfdr.simulate import ALL_PROCEDURES, GaussianSetupConfig, run_trials

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

run_trials(GaussianSetupConfig(n=40, m=2), ALL_PROCEDURES)
stdin, stdout, sys.stdout = sys.stdin, sys.stdout, io.StringIO()
sys.stdin = io.StringIO("0.5\\n3.0\\n")
status = arcfdr.cli.main(["stream", "--kind", "e"])
lines, sys.stdin, sys.stdout = sys.stdout.getvalue().splitlines(), stdin, stdout
before = scipy_modules()
from arcfdr import GaussianLRModel, TruncationSpec, TruncationVariant, solve_boost_factor
b = solve_boost_factor(GaussianLRModel(2.0), TruncationSpec(TruncationVariant.PRDS, 0.05, 0.01, s=100))
print(json.dumps({"status": status, "lines": len(lines), "before": before, "b": b,
                  "after": "scipy.special" in sys.modules}))
"""


def test_only_prds_loads_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(arcfdr.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _BOUNDARY], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["status"] == 0 and got["lines"] == 2
    assert got["before"] == []
    assert got["after"] and got["b"] >= 1.0
