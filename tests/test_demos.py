"""Smoke test of the walkthroughs in demos/: each runs and leaves the checkout
and the temp directory as it found them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def checkout_state():
    """Every file of the checkout that git does not ignore, with its mtime.

    Tracked files and new files outside .gitignore count; ignored paths
    such as .hypothesis/ do not, since another test process sharing the
    checkout may write there while a demo runs. A tracked file that is
    gone maps to None.
    """
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        check=True,
    ).stdout.decode("utf-8").split("\0")
    state = {}
    for name in filter(None, names):
        try:
            state[name] = (ROOT / name).stat().st_mtime_ns
        except FileNotFoundError:
            state[name] = None
    return state


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_without_writing_to_the_checkout(demo, tmp_path):
    # Demos write their bundles under the temp directory and delete them;
    # bytecode caching is off so that importing mtlearn from src/ writes
    # nothing either.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "TMPDIR": str(tmpdir),
    }
    before = checkout_state()
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert checkout_state() == before
    assert list(tmpdir.iterdir()) == []
