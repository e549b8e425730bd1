"""scipy is loaded by the lagged convex iteration only.

The package, the CLI verbs and the shipped pipelines that never call
`convex_step` run without importing scipy; the first `iterate` loads one
scipy module, the compiled LAPACK wrappers scipy.linalg._flapack, and
gives the same result as in a process where scipy was already loaded, in
whichever order scipy.linalg is imported, and on the fallback through
scipy.linalg.lapack.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from dispflow.cli import main
from dispflow.fileio import read_image
from dispflow.grid import Axis
from dispflow.varsolve import EnergyParams, iterate

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PARAMS = dict(k=1, p=2, q=2, alpha=1e-2, eps=1e-2)

CHILD = f"""
import os, sys
import numpy as np
import dispflow
from dispflow.cli import main
from dispflow.experiment import load_config, run_experiment
from dispflow.varsolve import EnergyParams

configs, tmp = sys.argv[1], sys.argv[2]
fig5 = load_config(os.path.join(configs, "fig5.cfg"))
fig5.n = fig5.n_out = 32
run_experiment(fig5, os.path.join(tmp, "fig5"))
run_experiment(load_config(os.path.join(configs, "fig3.cfg")), os.path.join(tmp, "fig3"))
ph, sino, flowed, rec = (os.path.join(tmp, f) for f in ("ph.csv", "s.csv", "f.csv", "r.csv"))
for argv in (["phantom", "--n=16", "--out=" + ph],
             ["perturb", "--n=16", "--angle-step=pi/16", "--out=" + sino],
             ["flow", "--in=" + sino, "--t-end=1e-4", "--out=" + flowed],
             ["fbp", "--in=" + sino, "--n-out=16", "--out=" + rec]):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, "scipy loaded before the lagged iteration: " + ", ".join(loaded[:5])
u, _ = dispflow.iterate(dispflow.read_image(sino), EnergyParams(**{PARAMS!r}), m_max=3)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == ["scipy.linalg._flapack"], loaded
np.save(os.path.join(tmp, "u.npy"), u.values)
"""


def _run_child(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_scipy_is_loaded_only_by_the_lagged_iteration(tmp_path):
    _run_child(CHILD, os.path.join(ROOT, "configs"), str(tmp_path))
    u, _ = iterate(read_image(tmp_path / "s.csv"), EnergyParams(**PARAMS), m_max=3)
    assert np.array_equal(np.load(tmp_path / "u.npy"), u.values)


#: p=2 along X1, p=1, and X2 with k=2; the axis by name
CASES = [dict(PARAMS, axis="X1"), dict(PARAMS, axis="X1", p=1, beta=1e-2),
         dict(PARAMS, axis="X2", k=2)]

ORDER_CHILD = f"""
import importlib.machinery, sys
import numpy as np
from dispflow import varsolve
from dispflow.fileio import read_image
from dispflow.grid import Axis
from dispflow.varsolve import EnergyParams, iterate

mode, sino, out = sys.argv[1:]
used = []


class Recording(varsolve._BandSolver):
    def __init__(self, *args):
        super().__init__(*args)
        used.append(self._pbsv)


varsolve._BandSolver = Recording
if mode == "scipy-first":
    import scipy.linalg
elif mode == "file-missing":
    importlib.machinery.EXTENSION_SUFFIXES = []  # no candidate file for _flapack
runs = []
for case in {CASES!r}:
    params = EnergyParams(**dict(case, axis=Axis[case["axis"]]))
    runs.append(iterate(read_image(sino), params, m_max=3))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if mode == "scipy-after":
    assert loaded == ["scipy.linalg._flapack"], loaded
if mode == "file-missing":
    assert "scipy.linalg.lapack" in loaded, loaded
import scipy.linalg
assert len(used) == len(runs) and all(f is scipy.linalg.lapack.dpbsv for f in used), used
x = scipy.linalg.solveh_banded(np.array([[4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]), np.ones(3), lower=True)
assert np.allclose([[4, 1, 0], [1, 4, 1], [0, 1, 4]] @ x, 1.0)
arrays = {{}}
for i, (u, trace) in enumerate(runs):
    arrays[f"u{{i}}"] = u.values
    arrays[f"trace{{i}}"] = np.array(trace.to_csv())
np.savez(out, **arrays)
"""


@pytest.mark.parametrize("mode", ["scipy-first", "scipy-after", "file-missing"])
def test_iterates_do_not_depend_on_how_dpbsv_was_loaded(tmp_path, mode):
    # scipy.linalg imported before or after the first iterate, or dpbsv
    # taken from scipy.linalg.lapack because the extension file is not found
    sino = tmp_path / "s.csv"
    assert main(["perturb", "--n=32", "--angle-step=pi/24", f"--out={sino}"]) == 0
    _run_child(ORDER_CHILD, mode, str(sino), str(tmp_path / "out.npz"))
    got = np.load(tmp_path / "out.npz")
    for i, case in enumerate(CASES):
        params = EnergyParams(**dict(case, axis=Axis[case["axis"]]))
        u, trace = iterate(read_image(sino), params, m_max=3)
        assert got[f"u{i}"].tobytes() == u.values.tobytes()
        assert got[f"u{i}"].flags.f_contiguous == u.values.flags.f_contiguous
        assert str(got[f"trace{i}"]) == trace.to_csv()
