"""Every narrative demo and README example runs against the package sources."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from dropattack import parse_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    """``python args`` in a subprocess that imports the package from src/."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    if path:
        src += os.pathsep + path
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def readme_block(language):
    """The README's one fenced code block in ``language``."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    result = run_python([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    result = run_python(["-c", readme_block("python")])
    assert result.returncode == 0, result.stderr


def test_readme_config_parses():
    exp = parse_experiment(json.loads(readme_block("json")))
    assert exp.model.m == 1 and exp.plan.kind == "iid"
