"""Smoke test of the walkthroughs in demos/: each runs and leaves the checkout
and the temp directory as it found them."""

import fnmatch
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def ignored_dir(rel: str) -> bool:
    """Whether .gitignore names the directory ``rel`` (relative to ROOT).

    Only its lines that end in "/" count. One that starts with "/" is
    anchored at the root; any other matches a directory at any depth.
    """
    lines = (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    return any(
        fnmatch.fnmatchcase(rel if line.startswith("/") else os.path.basename(rel), line.strip("/"))
        for line in lines
        if line.endswith("/")
    )


def checkout_names():
    """Every file of the checkout that git does not ignore.

    Tracked files and new files outside .gitignore count. Outside a git
    checkout (a source export), every file counts that is not under a
    directory .gitignore names.
    """
    if (ROOT / ".git").exists():
        return subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT,
            capture_output=True,
            check=True,
        ).stdout.decode("utf-8").split("\0")
    names = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        dirnames[:] = [d for d in dirnames if not ignored_dir(os.path.normpath(os.path.join(rel, d)))]
        names += [os.path.normpath(os.path.join(rel, f)) for f in filenames]
    return names


def checkout_state():
    """Each file of `checkout_names` with its mtime.

    Ignored paths such as .hypothesis/ do not count, since another test
    process sharing the checkout may write there while a demo runs. A
    tracked file that is gone maps to None.
    """
    state = {}
    for name in filter(None, checkout_names()):
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
