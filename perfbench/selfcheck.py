#!/usr/bin/env python3
"""Self-check of the benchmark against the mtlearn sources it measures.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks that every hook target in run.py resolves, that a hook on a
missing target is reported rather than raised, and that a small family
(same 5 languages, 9 fractions and 180 cells, fewer sentences) takes each
workload's code path with the output checks passing and the traced call
counts each workload promises. Takes about 25 s; exits 1 on a failure.
"""

from __future__ import annotations

import shutil
import sys

import run
from tracer import Tracer

SEED = 7
SMALL_FAMILY = {"n_sentences": 300, "vocab_size": 200}
PASSES = 2

# workload -> traced calls per pass that its description depends on
EXPECTED_CALLS = {
    "family_em": {
        "trainer.train_model1": 180, "trainer.decode": None,
        "trainer.run_external": 0, "bleu.corpus_bleu": 180,
    },
    "family_external": {
        "trainer.train_model1": 0, "trainer.decode": 0,
        "trainer.run_external": 180, "bleu.corpus_bleu": 180,
    },
    "family_resume": {
        "trainer.train_model1": 0, "trainer.run_external": 0,
        "bleu.corpus_bleu": 0, "pipeline._run_cell": 0,
        "sampling.subsample": 180,
    },
}


def check_workload(name: str, work) -> tuple[list[str], str]:
    kind, resume = run.WORKLOADS[name]
    manifest = run.set_up(work / name, SEED, kind, fill=resume, **SMALL_FAMILY)
    tracer = run.hooked_tracer()
    try:
        passes = [run.timed_pass(manifest, SEED, resume) for _ in range(PASSES)]
    finally:
        tracer.unhook()
    errors = [f"{name}: {e}" for p in passes for e in p.errors]
    errors += [f"{name}: {e}" for e in run.check_consistency(passes, SEED, kind)]
    if tracer.missing:
        errors.append(f"{name}: missing hooks {tracer.missing}")
    calls = {k: v["calls"] for k, v in tracer.summary().items()}
    for target, per_pass in EXPECTED_CALLS[name].items():
        got = calls.get(target, 0)
        if per_pass is None:
            if got == 0:
                errors.append(f"{name}: {target} never called")
        elif got != per_pass * PASSES:
            errors.append(f"{name}: {target} called {got} times, expected {per_pass * PASSES}")
    reused = {p.reused for p in passes}
    if reused != ({run.N_CELLS} if resume else {0}):
        errors.append(f"{name}: cells reused per pass {sorted(reused)}")
    return errors, passes[0].digest


def main() -> int:
    errors = []
    tracer = Tracer()
    tracer.hook("pipeline.no_such_function")
    if tracer.missing != ["pipeline.no_such_function"]:
        errors.append("a missing hook target was not reported as missing")

    run.WORK_ROOT.mkdir(exist_ok=True)
    work = run.WORK_ROOT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    try:
        digests = {}
        for name in run.WORKLOADS:
            found, digests[name] = check_workload(name, work)
            errors += found
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if digests["family_resume"] != digests["family_external"]:
        errors.append("resumed bundle differs from the fresh external bundle")

    for err in errors:
        print(f"selfcheck: FAIL {err}")
    print(f"selfcheck: {'FAIL' if errors else 'ok'} ({len(errors)} problems)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
