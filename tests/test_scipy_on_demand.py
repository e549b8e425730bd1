"""scipy is loaded by the lagged convex iteration only.

The package, the CLI verbs and the shipped pipelines that never call
`convex_step` run without importing scipy; the first `iterate` loads it
and gives the same result as in a process where scipy was already loaded.
"""

import os
import subprocess
import sys

import numpy as np

from dispflow.fileio import read_image
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
assert "scipy.linalg" in sys.modules
np.save(os.path.join(tmp, "u.npy"), u.values)
"""


def test_scipy_is_loaded_only_by_the_lagged_iteration(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(ROOT, "configs"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    u, _ = iterate(read_image(tmp_path / "s.csv"), EnergyParams(**PARAMS), m_max=3)
    assert np.array_equal(np.load(tmp_path / "u.npy"), u.values)
