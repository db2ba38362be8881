"""Every function the benchmark times still exists under the name it uses.

perfbench/run.py names the functions it wraps as "<module>.<qualname>"
strings in LAYER_HOOKS and COUNT_HOOKS. A name that no longer resolves is
only counted in the benchmark's trace.hooks_missing, and its layer then
reads 0, so these tests read the two tuples from the script's source,
without importing it, and resolve each name as perfbench/tracer.py's
`Tracer.hook` does.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def hook_lists() -> dict[str, tuple[str, ...]]:
    """{name: targets} of the LAYER_HOOKS and COUNT_HOOKS assignments."""
    hooks = {}
    for node in ast.parse(RUN_SCRIPT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYER_HOOKS", "COUNT_HOOKS"):
                hooks[name] = ast.literal_eval(node.value)
    return hooks


HOOKS = hook_lists()


def test_both_hook_lists_are_read():
    assert set(HOOKS) == {"LAYER_HOOKS", "COUNT_HOOKS"}
    assert {"trainer.train_model1", "trainer.decode"} <= set(HOOKS["LAYER_HOOKS"])


@pytest.mark.parametrize(
    "target", HOOKS.get("LAYER_HOOKS", ()) + HOOKS.get("COUNT_HOOKS", ())
)
def test_hook_target_resolves(target):
    module_name, _, qualname = target.partition(".")
    owner = importlib.import_module(f"mtlearn.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]  # defined on the owner itself, which hook replaces
    assert isinstance(raw, (classmethod, staticmethod)) or callable(raw)
