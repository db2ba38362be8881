"""Acceptance criteria for the learnability benchmarking toolkit.

Each criterion prints exactly one PASS/FAIL line (on the real stdout, so
it survives pytest capture) and then asserts. Oracles here are
self-contained so a criterion cannot pass by sharing a bug with the
implementation.
"""

import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mtlearn import analysis, bleu, pipeline, sampling, synthetic, trainer


def report(criterion, ok, desc):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {desc}", file=sys.__stdout__, flush=True)
    return ok


def reference_scatter(medium, exclude_source=None):
    written, spoken = analysis.embedded_matrices()
    matrix = written if medium == "written" else spoken
    points = analysis.build_scatter(analysis.embedded_reference_auc(), matrix)
    if exclude_source is not None:
        points = analysis.filter_by_source(points, exclude_source)
    return analysis.pearson(
        [p.auc for p in points], [p.intelligibility for p in points]
    )


# ---------------------------------------------------------------------------
# Criterion 1: written-intelligibility correlation from the reference tables
# ---------------------------------------------------------------------------


def test_criterion_1_written_correlation():
    r = reference_scatter("written")
    ok = abs(r - 0.539) <= 0.05
    report(1, ok, f"AUC vs written intelligibility r = {r:.3f}, expected 0.539 +/- 0.05")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: spoken correlations, with and without ro-source pairs
# ---------------------------------------------------------------------------


def test_criterion_2_spoken_correlations():
    r_all = reference_scatter("spoken")
    r_excl = reference_scatter("spoken", exclude_source="ro")
    ok = abs(r_all - 0.224) <= 0.05 and abs(r_excl - 0.585) <= 0.05
    report(
        2,
        ok,
        f"spoken r = {r_all:.3f} (expected 0.224 +/- 0.05), "
        f"excluding ro sources r = {r_excl:.3f} (expected 0.585 +/- 0.05)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: relative-BLEU normalization on the documented example
# ---------------------------------------------------------------------------


def test_criterion_3_relative_curve_example():
    curve = analysis.relative_curve([(0.5, 24.0), (1.0, 30.0)])
    got = [(p.fraction, p.relative) for p in curve.points]
    ok = got == [(0.5, 0.8), (1.0, 1.0)]
    report(3, ok, f"curve [(0.5, 24), (1.0, 30)] normalizes to {got}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: trapezoidal AUC against closed forms and an oracle
# ---------------------------------------------------------------------------


def test_criterion_4_auc():
    constant = analysis.relative_curve([(f / 10, 30.0) for f in range(2, 11)])
    linear = analysis.relative_curve([(f / 10, 3.0 * f) for f in range(2, 11)])
    auc_constant = analysis.auc_trapezoid(constant)
    auc_linear = analysis.auc_trapezoid(linear)

    rnd = random.Random(404)
    max_err = 0.0
    for _ in range(100):
        n = rnd.randrange(1, 9)
        fractions = sorted(rnd.sample([i / 20 for i in range(1, 20)], n)) + [1.0]
        curve = analysis.relative_curve([(f, rnd.uniform(1.0, 50.0)) for f in fractions])
        xs = [p.fraction * 100.0 for p in curve.points]
        ys = [p.relative for p in curve.points]
        expected = float(np.trapezoid(ys, xs))
        max_err = max(max_err, abs(analysis.auc_trapezoid(curve) - expected))

    ok = auc_constant == 80.0 and auc_linear == 48.0 and max_err <= 1e-9
    report(
        4,
        ok,
        f"constant curve AUC = {auc_constant} (want exactly 80.0), linear = "
        f"{auc_linear} (want exactly 48.0), max oracle gap = {max_err:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: corpus BLEU
# ---------------------------------------------------------------------------


def _oracle_ngrams(tokens, n):
    counts = {}
    for i in range(max(len(tokens) - n + 1, 0)):
        gram = tuple(tokens[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def oracle_bleu(hyps, refs):
    """Independent corpus BLEU: clipped counts pooled before division."""
    matched = [0] * 4
    total = [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        h = bleu.tokenize_13a(hyp)
        r = bleu.tokenize_13a(ref)
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            hyp_grams = _oracle_ngrams(h, n)
            ref_grams = _oracle_ngrams(r, n)
            for gram, count in hyp_grams.items():
                matched[n - 1] += min(count, ref_grams.get(gram, 0))
                total[n - 1] += count
    precisions = [m / t if t else 0.0 for m, t in zip(matched, total)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    if hyp_len == 0:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)


def test_criterion_5_bleu():
    identity = bleu.corpus_bleu(["the cat sat on the mat", "dogs bark at the moon"],
                                ["the cat sat on the mat", "dogs bark at the moon"]).score
    hand = bleu.corpus_bleu(["a b c d f"], ["a b c d e f"]).score
    zero = bleu.corpus_bleu(["a b c d"], ["a x b y c z d w"]).score

    rnd = random.Random(505)
    vocab = [f"w{i}" for i in range(12)]
    max_gap = 0.0
    for _ in range(50):
        n_sents = rnd.randrange(1, 6)
        hyps, refs = [], []
        for _ in range(n_sents):
            ref = [rnd.choice(vocab) for _ in range(rnd.randrange(1, 12))]
            if rnd.random() < 0.3:
                hyp = list(ref)
            else:
                hyp = [
                    rnd.choice(vocab) if rnd.random() < 0.4 else w
                    for w in ref
                    if rnd.random() < 0.9
                ]
            refs.append(" ".join(ref))
            hyps.append(" ".join(hyp))
        max_gap = max(
            max_gap, abs(bleu.corpus_bleu(hyps, refs).score - oracle_bleu(hyps, refs))
        )

    ok = (
        identity == 100.0
        and abs(hand - 57.89) <= 0.01
        and zero == 0.0
        and max_gap <= 1e-9
    )
    report(
        5,
        ok,
        f"identity = {identity}, short-hypothesis example = {hand:.5f} "
        f"(want 57.89 +/- 0.01), zero-precision case = {zero}, "
        f"max oracle gap over 50 random corpora = {max_gap:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: EM trainer properties
# ---------------------------------------------------------------------------


def test_criterion_6_em_properties():
    rnd = random.Random(606)
    monotone = True
    sums_ok = True
    for _ in range(3):
        pairs = []
        for _ in range(12):
            length = rnd.randrange(1, 5)
            pairs.append(
                (
                    " ".join(rnd.choice("abcdef") for _ in range(length)),
                    " ".join(rnd.choice("uvwxyz") for _ in range(length)),
                )
            )
        table = trainer.train_model1(pairs, iterations=20)
        lls = table.log_likelihoods
        monotone &= all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
        sums_ok &= all(
            abs(sum(dist.values()) - 1.0) <= 1e-9 for dist in table.entries.values()
        )

    table = trainer.train_model1([("a b", "x y"), ("a", "x")], iterations=10)
    disambiguated = table.entries["a"]["x"] > table.entries["a"]["y"]

    ok = monotone and sums_ok and disambiguated
    report(
        6,
        ok,
        f"log-likelihood non-decreasing over 20 iterations on 3 corpora: {monotone}, "
        f"distributions sum to 1 +/- 1e-9: {sums_ok}, "
        f"t(x|a) > t(y|a) after 10 iterations: {disambiguated}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criteria 7 and 8 share one full synthetic-family pipeline run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def family_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("family_a")
    info = synthetic.write_family(root)
    manifest = pipeline.load_manifest(info["manifest_path"])
    started = time.monotonic()
    ledger = pipeline.run_experiment(manifest)
    summary = pipeline.build_report(
        ledger, manifest.matrices, manifest.output_dir
    )
    elapsed = time.monotonic() - started
    return {
        "root": root,
        "manifest": manifest,
        "ledger": ledger,
        "summary": summary,
        "elapsed": elapsed,
        "overlap": info["overlap"],
    }


def test_criterion_7_synthetic_family(family_run):
    manifest = family_run["manifest"]
    ledger = family_run["ledger"]
    summary = family_run["summary"]

    pair_count = len(manifest.pairs())
    sizes_ok = True
    for src, tgt in manifest.pairs():
        meta = json.loads(
            (manifest.output_dir / "corpus" / f"{src}-{tgt}" / "meta.json").read_text()
        )
        total = sum(meta["counts"].values())
        sizes_ok &= 1900 <= total <= 2135

    # independent learnability signal: AUC should track vocabulary overlap
    overlap = family_run["overlap"]
    pair_keys = sorted(overlap)
    xs = [summary["auc"][analysis.pair_str(pair)] for pair in pair_keys]
    ys = [overlap[pair] for pair in pair_keys]
    r = analysis.pearson(xs, ys)

    ok = (
        pair_count == 20
        and ledger.all_done()
        and sizes_ok
        and family_run["elapsed"] < 300.0
        and r > 0.5
    )
    report(
        7,
        ok,
        f"20 directed pairs over 5 languages: {pair_count == 20}, "
        f"~2000 sentences per pair: {sizes_ok}, full run took "
        f"{family_run['elapsed']:.1f}s (limit 300s), "
        f"r(AUC, vocabulary overlap) = {r:.3f} (threshold 0.5)",
    )
    assert ok


def bundle_files(out_dir):
    return sorted(
        p.relative_to(out_dir)
        for p in Path(out_dir).rglob("*")
        if p.is_file() and p.name != "ledger.json"
    )


def bundles_identical(out_a, out_b):
    files_a = bundle_files(out_a)
    files_b = bundle_files(out_b)
    if files_a != files_b:
        return False, f"file sets differ: {set(files_a) ^ set(files_b)}"
    for rel in files_a:
        if (out_a / rel).read_bytes() != (out_b / rel).read_bytes():
            return False, f"content differs: {rel}"
    return True, f"{len(files_a)} files identical"


def test_criterion_8_determinism_and_resume(family_run, tmp_path_factory):
    reference_out = family_run["manifest"].output_dir

    # (a) a second uninterrupted run from scratch
    root_b = tmp_path_factory.mktemp("family_b")
    info_b = synthetic.write_family(root_b)
    manifest_b = pipeline.load_manifest(info_b["manifest_path"])
    ledger_b = pipeline.run_experiment(manifest_b)
    pipeline.build_report(ledger_b, manifest_b.matrices, manifest_b.output_dir)
    fresh_ok, fresh_msg = bundles_identical(reference_out, manifest_b.output_dir)

    # (b) a run killed partway through, then resumed
    root_c = tmp_path_factory.mktemp("family_c")
    info_c = synthetic.write_family(root_c)
    manifest_c = pipeline.load_manifest(info_c["manifest_path"])
    # The child imports the same mtlearn as this process, installed or not.
    src_dir = str(Path(pipeline.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "mtlearn.cli", "run",
            "--manifest", info_c["manifest_path"],
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    ledger_path = manifest_c.output_dir / "ledger.json"
    deadline = time.monotonic() + 240.0
    progressed = False
    try:
        while time.monotonic() < deadline and proc.poll() is None:
            if ledger_path.is_file():
                try:
                    raw = json.loads(ledger_path.read_text())
                except (json.JSONDecodeError, OSError):
                    raw = {"cells": {}}
                done = sum(
                    1 for c in raw["cells"].values() if c["status"] == "done"
                )
                if done >= 3:
                    progressed = True
                    break
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()

    interrupted = pipeline.RunLedger.load(ledger_path)
    was_partial = not interrupted.all_done() or len(interrupted.cells) < 180

    resumed_ledger = pipeline.run_experiment(manifest_c)
    pipeline.build_report(
        resumed_ledger, manifest_c.matrices, manifest_c.output_dir
    )
    resume_ok, resume_msg = bundles_identical(reference_out, manifest_c.output_dir)

    ok = fresh_ok and progressed and was_partial and resume_ok
    report(
        8,
        ok,
        f"fresh rerun bundle: {fresh_msg}; killed mid-run with progress "
        f"({progressed}) and work left ({was_partial}); resumed bundle: {resume_msg}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: nested subsampling invariants
# ---------------------------------------------------------------------------


def test_criterion_9_sampling_invariants():
    rnd = random.Random(909)
    checked = 0
    violations = []
    for _ in range(100):
        n = rnd.randrange(1, 400)
        f_small = rnd.uniform(0.01, 0.99)
        f_big = rnd.uniform(f_small, 1.0)
        seed = rnd.randrange(2**63)

        small = sampling.subsample(n, [f_small], seed)[0]
        big = sampling.subsample(n, [f_big], seed)[0]
        again = sampling.subsample(n, [f_small], seed)[0]
        full = sampling.subsample(n, [1.0], seed)[0]

        if len(small.indices) != math.ceil(f_small * n):
            violations.append(f"size: n={n} f={f_small}")
        if list(small.indices) != sorted(set(small.indices)):
            violations.append(f"order: n={n} f={f_small}")
        if small.indices and not (
            0 <= min(small.indices) and max(small.indices) < n
        ):
            violations.append(f"range: n={n} f={f_small}")
        if not set(small.indices) <= set(big.indices):
            violations.append(f"nesting: n={n} {f_small} !<= {f_big}")
        if small.indices != again.indices:
            violations.append(f"determinism: n={n} f={f_small} seed={seed}")
        if sorted(full.indices) != list(range(n)):
            violations.append(f"full-fraction identity: n={n}")
        checked += 1

    ok = checked == 100 and not violations
    report(
        9,
        ok,
        f"{checked} random (n, fraction, seed) triples checked; "
        + ("no violations" if not violations else f"violations: {violations[:3]}"),
    )
    assert ok
