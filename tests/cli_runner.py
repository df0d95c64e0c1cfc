"""Start the `reflextor` CLI in a child process against this checkout.

The child runs from the repository root with this checkout's `src/` at the
front of its `PYTHONPATH`, so the CLI tests exercise the code under test
whatever directory pytest was started from, and without `pip install -e`.
An inherited `PYTHONPATH` is kept behind it; it may be relative to the
directory pytest was started from, so it cannot stand in for `src/`.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    """Run `python -m reflextor *argv`; return the `CompletedProcess`."""
    return run_python("-m", "reflextor", *argv)


def run_python(*argv):
    """Run `python *argv`, a script path relative to the repository root or
    `-m` and a module; return the `CompletedProcess`."""
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
