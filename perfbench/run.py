#!/usr/bin/env python3
"""End-to-end benchmark of the mtlearn experiment pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload family_em --seed 42 --seconds 10 --trace 0

Every workload runs the default synthetic family (``synthetic.write_family``:
5 languages, 20 ordered pairs, 9 fractions, 180 cells, 2200 pivot sentences)
from the mtlearn sources in ``src/`` of the same checkout. With ``--trace 0``
the run times set-up and whole pipeline passes and prints the end-to-end
metrics; with ``--trace 1`` it wraps the layers' functions (see tracer.py)
and prints the per-layer metrics instead. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
one attempted operation is one pass (``run_experiment`` + ``build_report``).
See README.md for the workloads, the metrics and what each layer moves.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, span_cost_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
AWK_SCRIPT = "position_lookup.awk"
# The pipeline substitutes absolute {train}/{test_src}/{hyp_out} paths; the
# awk script is found through the trainer workdir, so the template (and with
# it the run fingerprint) does not depend on where the checkout lives.
EXTERNAL_TEMPLATE = f"awk -F '\\t' -f {AWK_SCRIPT} {{train}} {{test_src}} > {{hyp_out}}"

N_CELLS = 180  # 20 ordered pairs x 9 fractions
N_PAIRS = 20
N_INPUT_FILES = 10  # pivot + target file for each of 5 languages
# Generating the family takes ~0.1 s, so set-up repeats it at least this
# many times and for at least this long, twice per run, and reports the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0

# Pearson r of per-pair AUC against the family's vocabulary overlap, at the
# default seed, to 4 decimals. A quality guard: a faster pipeline must not
# learn differently.
PINNED_R_SEED42 = {"builtin-em": 0.9129, "external": 0.9334}

# name -> (trainer kind, timed passes resume a completed bundle)
WORKLOADS = {
    "family_em": ("builtin-em", False),
    "family_external": ("external", False),
    "family_resume": ("external", True),
}

# Functions wrapped in a traced pass, as "<module>.<qualname>" in mtlearn.
LAYER_HOOKS = (
    "pipeline.run_experiment",
    "pipeline.manifest_fingerprint",
    "pipeline.RunLedger.load",
    "pipeline.RunLedger.save",
    "corpus.load_pivot_bitext",
    "pipeline._prepare_pair",
    "corpus.build_parallel",
    "corpus.split_pair",
    "corpus.write_split_bundle",
    "corpus.read_pairs_tsv",
    "sampling.subsample",
    "pipeline._run_cell",
    "trainer.train_model1",
    "trainer.decode",
    "trainer.run_external",
    "bleu.corpus_bleu",
    "pipeline.build_report",
    "analysis.relative_curve",
    "analysis.auc_trapezoid",
    "analysis.pearson",
    "charts.line_chart",
    "charts.scatter_chart",
)
# Counted only, for the per-pair and per-file ratios.
COUNT_HOOKS = ("sampling.permutation", "pipeline._sha256_file")
LAYER_FIELDS = ("calls", "wall_s", "self_s", "cpu_s", "wait_s")
# Byte counters: RunLedger.save(ledger, path) rewrites the whole ledger.
HOOK_AFTER = {
    "pipeline.RunLedger.save": lambda result, ledger, path: os.path.getsize(path),
}


if not (SRC / "mtlearn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no mtlearn sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))  # this checkout's sources, ahead of any installed copy
from mtlearn import pipeline, synthetic  # noqa: E402


# ---------------------------------------------------------------------------
# Inputs and passes
# ---------------------------------------------------------------------------


def generate(family_dir: Path, seed: int, kind: str, **family):
    """Write the family and load its manifest, set to the given trainer.

    ``family`` overrides write_family's sizes; only the self-check uses it.
    """
    info = synthetic.write_family(family_dir, seed=seed, **family)
    manifest_path = Path(info["manifest_path"])
    if kind == "external":
        raw = json.loads(manifest_path.read_text(encoding="utf-8"))
        raw["trainer"] = {
            "kind": "external",
            "command_template": EXTERNAL_TEMPLATE,
            "workdir": str(BENCH_DIR),
        }
        manifest_path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return pipeline.load_manifest(manifest_path)


def set_up(family_dir: Path, seed: int, kind: str, fill: bool, **family):
    """generate(), then for resume run the pass that completes the bundle."""
    manifest = generate(family_dir, seed, kind, **family)
    if fill:
        one_pass(manifest)
    return manifest


def one_pass(manifest) -> dict:
    ledger = pipeline.run_experiment(manifest)
    return pipeline.build_report(ledger, manifest.matrices, manifest.output_dir)


def bundle_digest(out: Path) -> str:
    """sha256 over every bundle file except ledger.json (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel == "ledger.json":
            continue
        h.update(rel.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def read_ledger(out: Path) -> dict:
    path = out / "ledger.json"
    return json.loads(path.read_text(encoding="utf-8"))["cells"] if path.is_file() else {}


def r_overlap(summary: dict, seed: int) -> float:
    """Pearson r of per-pair AUC against the exact vocabulary overlap."""
    overlap = synthetic.overlap_matrix(seed=seed)
    pairs = sorted(overlap)
    aucs = [summary["auc"][f"{a}-{b}"] for a, b in pairs]
    return statistics.correlation(aucs, [overlap[p] for p in pairs])


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class PassRecord:
    """Timing and output checks of one pass."""

    def __init__(self) -> None:
        self.wall_s = math.nan
        self.cpu_s = math.nan
        self.done = 0
        self.reused = 0
        self.r = math.nan
        self.digest = ""
        self.errors: list[str] = []


def timed_pass(manifest, seed: int, resume: bool) -> PassRecord:
    """Run one pass on a fresh or completed bundle and check its outputs."""
    out = manifest.output_dir
    rec = PassRecord()
    if not resume and out.exists():
        shutil.rmtree(out)
    before_cells = read_ledger(out)
    before_digest = bundle_digest(out) if resume else ""
    before_ledger = (out / "ledger.json").read_bytes() if resume else b""
    gc.collect()
    try:
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        summary = one_pass(manifest)
        rec.wall_s = time.perf_counter() - t0
        rec.cpu_s = cpu_now() - cpu0
    except Exception:
        rec.errors.append(traceback.format_exc())
        return rec

    cells = read_ledger(out)
    rec.done = sum(c["status"] == "done" for c in cells.values())
    rec.reused = sum(
        before_cells.get(k) == c and c["status"] == "done" for k, c in cells.items()
    )
    rec.digest = bundle_digest(out)
    if len(cells) != N_CELLS or rec.done != N_CELLS:
        rec.errors.append(f"{rec.done} of {len(cells)} cells done, expected {N_CELLS}")
    try:
        rec.r = r_overlap(summary, seed)
    except (statistics.StatisticsError, KeyError) as exc:
        rec.errors.append(f"r_overlap undefined: {exc!r}")
    if not math.isfinite(rec.r):
        rec.errors.append(f"r_overlap undefined: {rec.r}")
    if resume:
        if rec.reused != N_CELLS:
            rec.errors.append(f"resume ran {N_CELLS - rec.reused} cells, expected 0")
        if rec.digest != before_digest:
            rec.errors.append("resume changed the bundle")
        if (out / "ledger.json").read_bytes() != before_ledger:
            rec.errors.append("resume changed ledger.json")
    return rec


def check_consistency(passes: list[PassRecord], seed: int, kind: str) -> list[str]:
    """Checks across the passes of one run."""
    errors = []
    good = [p for p in passes if not p.errors]
    if len({p.digest for p in good}) > 1:
        errors.append("bundle digest differs between passes")
    if len({p.r for p in good}) > 1:
        errors.append("r_overlap differs between passes")
    if seed == 42 and good and round(good[0].r, 4) != PINNED_R_SEED42[kind]:
        errors.append(
            f"r_overlap {good[0].r!r} at seed 42, expected {PINNED_R_SEED42[kind]}"
        )
    return errors


@contextlib.contextmanager
def on_cpu(i: int):
    """Run the block with the calling thread pinned to the i-th allowed CPU.

    Single-threaded work (a resume pass, family generation) stays on one
    CPU for long stretches, and on a shared virtual machine the CPUs' speeds
    can differ by up to 1.9x for tens of seconds. Cycling such work over the
    allowed CPUs makes every run sample all of them alike.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(allowed)[i % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def repeat_passes(manifest, seed: int, resume: bool, seconds: float) -> list[PassRecord]:
    """At least one pass; further passes only while they fit in `seconds`.

    Resume passes run no cell, so they are single-threaded and cycle over
    the CPUs; fresh passes use the pool and the trainer's processes as is.
    """
    passes: list[PassRecord] = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        with on_cpu(len(passes)) if resume else contextlib.nullcontext():
            passes.append(timed_pass(manifest, seed, resume))
        last = time.perf_counter() - t0
    return passes


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def timed_generations(work: Path, seed: int, kind: str, gen_times: list[float]):
    """generate() into fresh directories, at least SETUP_MIN_REPEATS times and
    for SETUP_MIN_S seconds, appending each time to ``gen_times``.

    Returns the last manifest; earlier directories are removed.
    """
    start = time.perf_counter()
    count = 0
    while count < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        shutil.rmtree(work / f"family{len(gen_times) - 1}", ignore_errors=True)
        with on_cpu(count):
            t0 = time.perf_counter()
            manifest = generate(work / f"family{len(gen_times)}", seed, kind)
            gen_times.append(time.perf_counter() - t0)
        count += 1
    return manifest


def run_untraced(work: Path, seed: int, kind: str, resume: bool, seconds: float):
    # Set-up is timed in two batches, before and after the passes, so that
    # its median does not rest on a single phase of the host's speed.
    gen_times: list[float] = []
    manifest = timed_generations(work, seed, kind, gen_times)
    # The resume workload's filling run (~10 s) is timed once.
    fill_s = 0.0
    if resume:
        t0 = time.perf_counter()
        one_pass(manifest)
        fill_s = time.perf_counter() - t0

    passes = repeat_passes(manifest, seed, resume, seconds)
    timed_generations(work, seed, kind, gen_times)
    errors = check_consistency(passes, seed, kind)
    good = [p for p in passes if not p.errors] or passes
    metrics = {
        "setup_s": (statistics.median(gen_times) + fill_s, "s"),
        # The mean over the run's passes, not their median: the host's speed
        # switches between two levels in phases longer than a resume pass,
        # and a median would report one level or the other.
        "run_s": (statistics.fmean(p.wall_s for p in good), "s"),
        "cpu_s": (statistics.fmean(p.cpu_s for p in good), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "cell_done_ratio": (min(p.done for p in passes) / N_CELLS, "ratio"),
        "r_overlap": (good[0].r, "r"),
    }
    return passes, errors, metrics, None


def hooked_tracer() -> Tracer:
    """A tracer with every layer and count hook installed."""
    tracer = Tracer()
    for target in LAYER_HOOKS + COUNT_HOOKS:
        tracer.hook(target, after=HOOK_AFTER.get(target))
    return tracer


def run_traced(work: Path, seed: int, kind: str, resume: bool, seconds: float):
    manifest = set_up(work / "family0", seed, kind, fill=resume)
    tracer = hooked_tracer()
    try:
        passes = repeat_passes(manifest, seed, resume, seconds)
    finally:
        tracer.unhook()
    errors = check_consistency(passes, seed, kind)
    n = len(passes)
    totals = tracer.summary()

    metrics = {}
    for name in LAYER_HOOKS:
        entry = totals.get(name, {})
        for field in LAYER_FIELDS:
            value = entry.get(field, 0)
            unit = "count" if field == "calls" else "s"
            metrics[f"{name}.{field}"] = (value // n if field == "calls" else value / n, unit)
    counts = {name: totals.get(name, {}).get("calls", 0) for name in COUNT_HOOKS}
    metrics["pipeline.RunLedger.save.bytes"] = (
        tracer.counters.get("pipeline.RunLedger.save.bytes", 0) // n, "B"
    )
    metrics["sampling.permutations_per_pair"] = (
        counts["sampling.permutation"] / n / N_PAIRS, "ratio"
    )
    metrics["pipeline.input_hashes_per_file"] = (
        counts["pipeline._sha256_file"] / n / N_INPUT_FILES, "ratio"
    )
    metrics["pipeline.cells_reused_ratio"] = (
        statistics.mean(p.reused for p in passes) / N_CELLS, "ratio"
    )
    metrics["trace.overhead_s"] = (len(tracer.spans) / n * span_cost_s(), "s")
    metrics["trace.hooks_missing"] = (len(tracer.missing), "count")
    return passes, errors, metrics, tracer


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def awk_version() -> str:
    path = shutil.which("awk")
    if path is None:
        return "missing"
    for args in (["-W", "version"], ["--version"]):
        try:
            proc = subprocess.run(
                [path, *args], stdin=subprocess.DEVNULL, capture_output=True,
                text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip():
            return f"{os.path.realpath(path)}: {proc.stdout.splitlines()[0]}"
    return os.path.realpath(path)


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "awk": awk_version(),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    kind, resume = WORKLOADS[args.workload]

    WORK_ROOT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        mode = run_traced if args.trace else run_untraced
        passes, errors, metrics, tracer = mode(work, args.seed, kind, resume, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args)
    failed = sum(bool(p.errors) for p in passes)
    for i, p in enumerate(passes):
        for err in p.errors:
            print(f"perfbench: pass {i} failed: {err}", file=sys.stderr)
    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    digest = next((p.digest for p in passes if p.digest), "")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(passes),
        "failed": failed,
        # A metric with no successful pass behind it reads null, not NaN.
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }
    record = {"environment": env, "bundle_digest": digest, "result": result}
    if tracer is not None:
        tracer.write(WORK_ROOT / f"trace-{tag}.json", extra={"environment": env})
        if tracer.missing:
            print(f"perfbench: missing hooks: {', '.join(tracer.missing)}")
    (WORK_ROOT / f"result-{tag}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"bundle_digest: {digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
