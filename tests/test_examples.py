"""The simulator-only examples run to completion.

Each script under ``examples/`` runs in a fresh interpreter and must
exit 0.  ``serving_demo.py`` spawns the live serving tier, so the CI
``serving`` job runs it instead.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

SIMULATOR_EXAMPLES = sorted(
    path.name for path in EXAMPLES.glob("*.py")
    if path.name != "serving_demo.py"
)


def test_examples_found():
    assert len(SIMULATOR_EXAMPLES) >= 8


@pytest.mark.parametrize("name", SIMULATOR_EXAMPLES)
def test_example_runs(name, tmp_path):
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
