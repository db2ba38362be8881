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
    """Every path of the checkout outside .git, with its modification time."""
    return {
        path: path.stat().st_mtime_ns
        for path in ROOT.rglob("*")
        if path.relative_to(ROOT).parts[0] != ".git"
    }


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
