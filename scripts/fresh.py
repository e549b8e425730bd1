"""The one way the bench scripts start a fresh Python interpreter."""

from __future__ import annotations

import os
import subprocess
import sys


def fresh_python(args, cwd=None, env=None) -> str:
    """The stdout of `python *args` in a fresh interpreter (this one's
    executable), run in cwd with the environment env (default: this
    process's); exits with the command, its status and its stderr if it
    fails."""
    cmd = [sys.executable, *args]
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {cwd or os.getcwd()} exited {done.returncode}:\n{done.stderr}")
    return done.stdout
