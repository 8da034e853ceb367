"""Every script under ``examples/`` runs to completion.

``tests/test_surface.py`` counts the examples as live importers, so the
API only they call (``sample_metapath``, ``Trainer.train_epoch``, ...)
is kept alive by them; this runs each one in a fresh interpreter with
``PYTHONPATH=src`` and asserts it exits 0.  A new example is covered
without editing this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
