import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _readme_cli_commands():
    """The lines of the README's `## CLI` code block, without the leading
    `metacyclic`."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines()[1:] if line.strip()]
    assert lines and all(line.startswith("metacyclic ") for line in lines)
    return [line.split()[1:] for line in lines]


README_COMMANDS = _readme_cli_commands()


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_cli_command_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "metacyclic", *argv], capture_output=True, text=True,
        env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
