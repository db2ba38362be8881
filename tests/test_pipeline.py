"""Tests for manifests, the experiment runner, resume, and reporting."""

import dataclasses
import fcntl
import hashlib
import json
import os
import random
import shutil
import tempfile
import threading
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtlearn.trainer
from mtlearn import analysis, cli, corpus, pipeline, sampling, trainer


def make_experiment(root, trainer_cfg=None, n_sentences=100, seed=3):
    """Write a tiny 2-language ciphered experiment and its manifest.

    Both languages are word ciphers of a shared pivot; each side drops a
    different handful of pivot lines so pairing is nontrivial.
    """
    rnd = random.Random(seed)
    vocab = [f"t{i:02d}" for i in range(40)]
    pivot = []
    seen = set()
    while len(pivot) < n_sentences:
        sent = " ".join(rnd.choice(vocab) for _ in range(rnd.randrange(3, 8)))
        if sent not in seen:
            seen.add(sent)
            pivot.append(sent)

    data = root / "data"
    data.mkdir(parents=True, exist_ok=True)
    kept = {"aa": pivot[: n_sentences - 5], "bb": pivot[5:]}
    for lang, lines in kept.items():
        ciphered = [" ".join(lang + w for w in line.split()) for line in lines]
        (data / f"{lang}.pivot.txt").write_text("\n".join(lines) + "\n")
        (data / f"{lang}.txt").write_text("\n".join(ciphered) + "\n")

    manifest = {
        "languages": ["aa", "bb"],
        "data_sources": {
            lang: {"pivot": f"data/{lang}.pivot.txt", "target": f"data/{lang}.txt"}
            for lang in kept
        },
        "split": {"dev_ratio": 0.1, "test_ratio": 0.2},
        "seed": 7,
        "trainer": trainer_cfg or {"kind": "builtin-em", "em_iterations": 2},
        "max_parallel_jobs": 2,
        "output_dir": "out",
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


class TestFractionSlug:
    def test_values(self):
        assert pipeline.fraction_slug(0.2) == "0.2"
        assert pipeline.fraction_slug(1.0) == "1.0"
        assert pipeline.fraction_slug(0.25) == "0.25"
        assert pipeline.fraction_slug(0.05) == "0.05"

    def test_grid_slugs_unique(self):
        slugs = [pipeline.fraction_slug(f) for f in sampling.FRACTION_GRID]
        assert len(set(slugs)) == len(slugs)
        assert slugs[0] == "0.2"
        assert slugs[-1] == "1.0"


class TestLoadManifest:
    def test_valid_manifest_loads(self, tmp_path):
        path = make_experiment(tmp_path)
        manifest = pipeline.load_manifest(path)
        assert manifest.languages == ("aa", "bb")
        assert manifest.output_dir == (tmp_path / "out").resolve()
        assert manifest.trainer_spec.kind == "builtin-em"
        assert manifest.trainer_spec.em_iterations == 2
        assert manifest.fractions == sampling.FRACTION_GRID
        assert manifest.pairs() == [("aa", "bb"), ("bb", "aa")]

    def test_paths_resolved_relative_to_manifest(self, tmp_path):
        path = make_experiment(tmp_path)
        manifest = pipeline.load_manifest(path)
        pivot, target = manifest.data_sources["aa"]
        assert pivot == (tmp_path / "data" / "aa.pivot.txt").resolve()
        assert target.is_file()

    def test_not_json(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        with pytest.raises(pipeline.ManifestError, match="not valid JSON"):
            pipeline.load_manifest(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(pipeline.ManifestError, match="cannot read"):
            pipeline.load_manifest(tmp_path / "absent.json")

    def test_unknown_key_rejected(self, tmp_path):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["surprise"] = 1
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError, match="unknown manifest keys"):
            pipeline.load_manifest(path)

    def test_missing_required_key(self, tmp_path):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        del raw["output_dir"]
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError, match="missing required key"):
            pipeline.load_manifest(path)

    def test_nonexistent_data_file(self, tmp_path):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["data_sources"]["aa"]["pivot"] = "data/ghost.txt"
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError, match="not found"):
            pipeline.load_manifest(path)

    def test_bad_split_key(self, tmp_path):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["split"]["train_ratio"] = 0.7
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError, match="split accepts only"):
            pipeline.load_manifest(path)

    def test_bad_trainer_key(self, tmp_path):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["trainer"]["gpu"] = True
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError, match="unknown trainer keys"):
            pipeline.load_manifest(path)

    def test_bad_trainer_spec(self, tmp_path):
        path = make_experiment(tmp_path, trainer_cfg={"kind": "external"})
        with pytest.raises(pipeline.ManifestError, match="bad trainer spec"):
            pipeline.load_manifest(path)

    def test_partial_matrices_rejected(self, tmp_path):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["matrices"] = {"written": {}}
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError, match="exactly 'written'"):
            pipeline.load_manifest(path)

    def test_bad_language_code(self, tmp_path):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["languages"] = ["aa", "B!"]
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError):
            pipeline.load_manifest(path)


class TestManifestValidation:
    def base_kwargs(self, tmp_path):
        path = make_experiment(tmp_path)
        manifest = pipeline.load_manifest(path)
        return {
            "languages": manifest.languages,
            "data_sources": manifest.data_sources,
            "output_dir": manifest.output_dir,
        }

    def test_direct_construction_validates(self, tmp_path):
        kwargs = self.base_kwargs(tmp_path)
        pipeline.ExperimentManifest(**kwargs)
        with pytest.raises(pipeline.ManifestError, match="at least 2"):
            pipeline.ExperimentManifest(**{**kwargs, "languages": ("aa",)})
        with pytest.raises(pipeline.ManifestError, match="duplicate"):
            pipeline.ExperimentManifest(
                **{**kwargs, "languages": ("aa", "aa")}
            )
        with pytest.raises(pipeline.ManifestError, match="no data_sources"):
            pipeline.ExperimentManifest(
                **{**kwargs, "languages": ("aa", "bb", "cc")}
            )
        with pytest.raises(pipeline.ManifestError, match="max_parallel_jobs"):
            pipeline.ExperimentManifest(**kwargs, max_parallel_jobs=0)
        with pytest.raises(pipeline.ManifestError, match="include 1.0"):
            pipeline.ExperimentManifest(**kwargs, fractions=(0.2, 0.5))
        with pytest.raises(pipeline.ManifestError, match="unique and ascending"):
            pipeline.ExperimentManifest(**kwargs, fractions=(0.5, 0.5, 1.0))
        with pytest.raises(pipeline.ManifestError, match=r"in \(0, 1\]"):
            pipeline.ExperimentManifest(**kwargs, fractions=(-0.1, 1.0))

    def test_fractions_sharing_a_file_name_rejected(self, tmp_path, capsys):
        # fraction_slug keeps 4 decimals; two cells of a pair would write
        # the same subset and hypothesis files.
        kwargs = self.base_kwargs(tmp_path)
        fractions = [0.12341, 0.12344, 1.0]
        with pytest.raises(pipeline.ManifestError, match="4 decimals"):
            pipeline.ExperimentManifest(**kwargs, fractions=tuple(fractions))
        path = tmp_path / "manifest.json"
        raw = json.loads(path.read_text())
        raw["fractions"] = fractions
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError, match="4 decimals"):
            pipeline.load_manifest(path)
        assert cli.main(["run", "--manifest", str(path)]) == 2
        assert "4 decimals" in capsys.readouterr().err
        assert not kwargs["output_dir"].exists()

    def test_pair_seeds_are_direction_sensitive(self, tmp_path):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert manifest.pair_split_seed("aa", "bb") != manifest.pair_split_seed("bb", "aa")
        assert manifest.pair_subset_seed("aa", "bb") != manifest.pair_subset_seed("bb", "aa")
        assert manifest.pair_split_seed("aa", "bb") == manifest.pair_split_seed("aa", "bb")


class TestFingerprint:
    def test_stable_across_loads(self, tmp_path):
        path = make_experiment(tmp_path)
        a = pipeline.manifest_fingerprint(pipeline.load_manifest(path))
        b = pipeline.manifest_fingerprint(pipeline.load_manifest(path))
        assert a == b

    def test_sensitive_to_seed_trainer_and_data(self, tmp_path):
        path = make_experiment(tmp_path)
        base = pipeline.manifest_fingerprint(pipeline.load_manifest(path))

        raw = json.loads(path.read_text())
        raw["seed"] = 8
        path.write_text(json.dumps(raw))
        assert pipeline.manifest_fingerprint(pipeline.load_manifest(path)) != base

        raw["seed"] = 7
        raw["trainer"]["em_iterations"] = 3
        path.write_text(json.dumps(raw))
        assert pipeline.manifest_fingerprint(pipeline.load_manifest(path)) != base

        raw["trainer"]["em_iterations"] = 2
        path.write_text(json.dumps(raw))
        data_file = tmp_path / "data" / "aa.txt"
        data_file.write_text(data_file.read_text() + "aaextra\n")
        assert pipeline.manifest_fingerprint(pipeline.load_manifest(path)) != base

    def test_insensitive_to_output_dir_and_jobs(self, tmp_path):
        path = make_experiment(tmp_path)
        base = pipeline.manifest_fingerprint(pipeline.load_manifest(path))
        raw = json.loads(path.read_text())
        raw["output_dir"] = "elsewhere"
        raw["max_parallel_jobs"] = 7
        path.write_text(json.dumps(raw))
        assert pipeline.manifest_fingerprint(pipeline.load_manifest(path)) == base


class TestLedger:
    def make_ledger(self):
        cells = {}
        for fraction in (0.5, 1.0):
            cells[("aa", "bb", fraction)] = pipeline.CellRecord(
                src="aa", tgt="bb", fraction=fraction, status="done",
                bleu=30.0, hypothesis_path=f"hyps/aa-bb/{fraction}.txt",
                wall_time=0.1,
            )
        return pipeline.RunLedger(fingerprint="f" * 64, cells=cells)

    def test_roundtrip(self, tmp_path):
        ledger = self.make_ledger()
        path = tmp_path / "ledger.json"
        ledger.save(path)
        back = pipeline.RunLedger.load(path)
        assert back.fingerprint == ledger.fingerprint
        assert back.cells == ledger.cells

    def test_key_str(self):
        ledger = self.make_ledger()
        assert ledger.key_str(("aa", "bb", 0.5)) == "aa-bb/0.5"

    def test_all_done_and_failed(self):
        ledger = self.make_ledger()
        assert ledger.all_done()
        assert ledger.failed() == []
        ledger.cells[("aa", "bb", 0.5)].status = "failed"
        assert not ledger.all_done()
        assert len(ledger.failed()) == 1


def bundle_files(out):
    """Every path under a bundle, relative to it."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyrun")
    manifest = pipeline.load_manifest(make_experiment(root))
    ledger = pipeline.run_experiment(manifest)
    return root, manifest, ledger


class TestRunExperiment:
    def test_all_18_cells_done(self, tiny_run):
        _, manifest, ledger = tiny_run
        assert len(ledger.cells) == 2 * len(sampling.FRACTION_GRID)
        assert ledger.all_done()
        for record in ledger.cells.values():
            assert record.bleu is not None
            assert 0.0 <= record.bleu <= 100.0
            assert record.wall_time is not None

    def test_output_layout(self, tiny_run):
        _, manifest, _ = tiny_run
        out = manifest.output_dir
        for pair in ("aa-bb", "bb-aa"):
            for name in ("train.tsv", "dev.tsv", "test.tsv", "meta.json"):
                assert (out / "corpus" / pair / name).is_file()
            for fraction in sampling.FRACTION_GRID:
                slug = pipeline.fraction_slug(fraction)
                assert (out / "subsets" / pair / f"{slug}.json").is_file()
                assert (out / "hyps" / pair / f"{slug}.txt").is_file()
        assert (out / "scores.csv").is_file()
        assert (out / "ledger.json").is_file()
        # builtin trainer does not need a test source file on disk
        assert not (out / "corpus" / "aa-bb" / "test.src.txt").exists()

    def test_scores_csv_sorted_and_complete(self, tiny_run):
        _, manifest, ledger = tiny_run
        lines = (manifest.output_dir / "scores.csv").read_text().splitlines()
        assert lines[0] == "pair,fraction,bleu"
        assert len(lines) == 1 + len(ledger.cells)
        keys = []
        for line in lines[1:]:
            pair, fraction, score = line.split(",")
            keys.append((pair, float(fraction)))
            assert float(score) == ledger.cells[
                (*analysis.parse_pair(pair), float(fraction))
            ].bleu
        assert keys == sorted(keys)

    def test_scores_csv_bytes_pinned(self, tiny_run):
        # A float change anywhere in EM, or another argmax tie-break,
        # changes these bytes.
        _, manifest, _ = tiny_run
        data = (manifest.output_dir / "scores.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "727c90fcf7b7395c2f20c28a300dcc10a0950e6143600877ea848dba52f1e2b3"
        )

    def test_fingerprints_pinned(self, tiny_run):
        # Both fingerprints come from the same per-file digests; these
        # values were taken before the digests were shared, so a ledger or
        # corpus written by an older run is still reused.
        _, manifest, ledger = tiny_run
        expected = "d38b9807b7e90f8feb185a49441d3273490739bbc06f1b94193a6b18e63bfe32"
        assert pipeline.manifest_fingerprint(manifest) == expected
        assert ledger.fingerprint == expected
        meta = json.loads(
            (manifest.output_dir / "corpus" / "aa-bb" / "meta.json").read_text()
        )
        assert meta["fingerprint"] == (
            "4c21ba57fa5f8bc20a5ec19c08301dce03ad177a3eafa51c11557f9516ae0363"
        )

    def test_each_input_file_hashed_once_per_run(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        real_hash = pipeline._sha256_file
        hashed = []

        def counting_hash(path):
            hashed.append(path)
            return real_hash(path)

        monkeypatch.setattr(pipeline, "_sha256_file", counting_hash)
        pipeline.run_experiment(manifest)
        inputs = [p for paths in manifest.data_sources.values() for p in paths]
        assert sorted(hashed) == sorted(inputs)

    def test_each_pivot_line_normalized_once_per_run(self, tmp_path, monkeypatch):
        # Each language takes part in several pairs; its pivot lines are
        # normalized once, not once per pair.
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        real_normalize = corpus.normalize_pivot
        normalized = []

        def counting_normalize(sentence):
            normalized.append(sentence)
            return real_normalize(sentence)

        monkeypatch.setattr(corpus, "normalize_pivot", counting_normalize)
        assert pipeline.run_experiment(manifest).all_done()
        lines = [
            line
            for pivot, _ in manifest.data_sources.values()
            for line in corpus.read_lines(pivot)
        ]
        assert sorted(normalized) == sorted(lines)

    def test_run_never_builds_a_tables_entries(self, tmp_path, monkeypatch):
        # Decoding reads only argmax, so no cell pays for the entries dicts.
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        real_entries = trainer.LexicalTable.__dict__["entries"]
        real_train = trainer.train_model1
        built, trained = [], []

        def spying_entries(table):
            built.append(table)
            return real_entries.__get__(table, type(table))

        def keeping_train(pairs, iterations):
            trained.append(real_train(pairs, iterations))
            return trained[-1]

        monkeypatch.setattr(trainer.LexicalTable, "entries", property(spying_entries))
        monkeypatch.setattr(mtlearn.trainer, "train_model1", keeping_train)
        assert pipeline.run_experiment(manifest).all_done()
        assert len(trained) == 2 * len(sampling.FRACTION_GRID)
        assert built == []
        assert trained[0].entries  # the spy sees a read
        assert built == [trained[0]]

    def test_builtin_cells_run_one_at_a_time(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert manifest.max_parallel_jobs == 2
        real_train = trainer.train_model1
        lock = threading.Lock()
        running = {"now": 0, "peak": 0}

        def tracking_train(pairs, iterations):
            with lock:
                running["now"] += 1
                running["peak"] = max(running["peak"], running["now"])
            try:
                time.sleep(0.01)  # gives a second worker thread the chance to start
                return real_train(pairs, iterations)
            finally:
                with lock:
                    running["now"] -= 1

        monkeypatch.setattr(mtlearn.trainer, "train_model1", tracking_train)
        assert pipeline.run_experiment(manifest).all_done()
        assert running["peak"] == 1

    def test_finished_pair_working_set_is_released(self, tmp_path, monkeypatch):
        # A pair's BLEU memo and EM index are freed once its last cell is
        # recorded, so those of all pairs are never alive at once. The index
        # is built at the pair's first cell, not when the pair is prepared.
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        real_run_cell = pipeline._run_cell
        refs = {}
        indices = {}
        alive_at_first_cell = {}

        def spying_run_cell(manifest, data, fraction):
            pair = (data.src, data.tgt)
            first = pair not in refs
            if first:
                alive_at_first_cell[pair] = [
                    (p, name)
                    for name, weakrefs in (("refs", refs), ("index", indices))
                    for p, ref in weakrefs.items()
                    if ref()
                ]
                assert "em_corpus" not in vars(data)
                refs[pair] = weakref.ref(data.test_refs)
            result = real_run_cell(manifest, data, fraction)
            if first:
                indices[pair] = weakref.ref(data.em_corpus)
            return result

        monkeypatch.setattr(pipeline, "_run_cell", spying_run_cell)
        assert pipeline.run_experiment(manifest).all_done()
        assert alive_at_first_cell == {("aa", "bb"): [], ("bb", "aa"): []}
        assert len(indices) == 2

    def test_full_data_beats_smallest_fraction(self, tiny_run):
        _, _, ledger = tiny_run
        for pair in (("aa", "bb"), ("bb", "aa")):
            small = ledger.cells[(*pair, 0.2)].bleu
            full = ledger.cells[(*pair, 1.0)].bleu
            assert full > small

    def test_subset_manifests_are_nested(self, tiny_run):
        _, manifest, _ = tiny_run
        out = manifest.output_dir
        previous = None
        for fraction in sampling.FRACTION_GRID:
            slug = pipeline.fraction_slug(fraction)
            raw = json.loads(
                (out / "subsets" / "aa-bb" / f"{slug}.json").read_text()
            )
            indices = set(raw["indices"])
            if previous is not None:
                assert previous <= indices
            previous = indices

    def test_rerun_skips_all_work(self, tiny_run, monkeypatch):
        root, manifest, _ = tiny_run
        ledger_path = manifest.output_dir / "ledger.json"
        before = ledger_path.read_bytes()
        scores_before = (manifest.output_dir / "scores.csv").read_bytes()
        files_before = bundle_files(manifest.output_dir)

        calls = []

        def counting_train(pairs, iterations):
            calls.append(1)
            raise AssertionError("training must not run on a finished ledger")

        monkeypatch.setattr(mtlearn.trainer, "train_model1", counting_train)
        ledger = pipeline.run_experiment(manifest)
        assert calls == []
        assert ledger.all_done()
        assert ledger_path.read_bytes() == before
        assert (manifest.output_dir / "scores.csv").read_bytes() == scores_before
        assert bundle_files(manifest.output_dir) == files_before

    def test_stale_cells_dropped(self, tmp_path):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        fingerprint = pipeline.manifest_fingerprint(manifest)
        stale = pipeline.RunLedger(
            fingerprint=fingerprint,
            cells={
                ("aa", "bb", 0.15): pipeline.CellRecord(
                    src="aa", tgt="bb", fraction=0.15, status="done",
                    bleu=1.0, hypothesis_path="hyps/aa-bb/0.15.txt",
                )
            },
        )
        manifest.output_dir.mkdir(parents=True, exist_ok=True)
        stale.save(manifest.output_dir / "ledger.json")
        ledger = pipeline.run_experiment(manifest)
        assert ("aa", "bb", 0.15) not in ledger.cells
        assert len(ledger.cells) == 18

    def test_mismatched_fingerprint_restarts(self, tmp_path):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        manifest.output_dir.mkdir(parents=True, exist_ok=True)
        bogus = pipeline.RunLedger(fingerprint="0" * 64, cells={})
        bogus.save(manifest.output_dir / "ledger.json")
        ledger = pipeline.run_experiment(manifest)
        assert ledger.fingerprint == pipeline.manifest_fingerprint(manifest)
        assert ledger.all_done()


class TestFailureAndResume:
    def test_failed_cells_recorded_then_resumed(self, tmp_path, monkeypatch):
        clean_root = tmp_path / "clean"
        clean_root.mkdir()
        clean_manifest = pipeline.load_manifest(make_experiment(clean_root))
        pipeline.run_experiment(clean_manifest)

        flaky_root = tmp_path / "flaky"
        flaky_root.mkdir()
        flaky_manifest = pipeline.load_manifest(make_experiment(flaky_root))

        real_train = trainer.train_model1
        budget_lock = threading.Lock()
        remaining = {"budget": 5}  # let 5 cells pass, fail the rest

        def flaky_train(pairs, iterations):
            with budget_lock:
                if remaining["budget"] <= 0:
                    raise RuntimeError("injected crash")
                remaining["budget"] -= 1
            return real_train(pairs, iterations)

        monkeypatch.setattr(mtlearn.trainer, "train_model1", flaky_train)
        first = pipeline.run_experiment(flaky_manifest)
        assert not first.all_done()
        failed = first.failed()
        assert len(failed) == 13
        assert all("injected crash" in c.error for c in failed)

        # scores.csv carries only the finished cells
        lines = (flaky_manifest.output_dir / "scores.csv").read_text().splitlines()
        assert len(lines) == 1 + 5

        monkeypatch.setattr(mtlearn.trainer, "train_model1", real_train)
        second = pipeline.run_experiment(flaky_manifest)
        assert second.all_done()

        for name in ("scores.csv",):
            assert (flaky_manifest.output_dir / name).read_bytes() == (
                clean_manifest.output_dir / name
            ).read_bytes()
        for hyp in sorted((clean_manifest.output_dir / "hyps").rglob("*.txt")):
            twin = flaky_manifest.output_dir / hyp.relative_to(clean_manifest.output_dir)
            assert twin.read_bytes() == hyp.read_bytes()

    def test_corpus_rebuild_cut_after_train_tsv_is_not_reused(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        pipeline.run_experiment(manifest)
        out = manifest.output_dir
        pair_dir = out / "corpus" / "aa-bb"
        kept = [pair_dir / "train.tsv", *sorted((out / "subsets" / "aa-bb").glob("*.json"))]
        first = {path: path.read_bytes() for path in kept}

        # Another split of the same data is cut right after train.tsv.
        real_write = corpus.write_pairs_tsv

        def write_then_cut(pair, path):
            real_write(pair, path)
            if Path(path).name == "train.tsv":
                raise RuntimeError("cut")

        monkeypatch.setattr(corpus, "write_pairs_tsv", write_then_cut)
        with pytest.raises(RuntimeError, match="cut"):
            pipeline.run_experiment(dataclasses.replace(manifest, test_ratio=0.3))
        assert (pair_dir / "train.tsv").read_bytes() != first[pair_dir / "train.tsv"]

        monkeypatch.setattr(corpus, "write_pairs_tsv", real_write)
        assert pipeline.run_experiment(manifest).all_done()
        assert {path: path.read_bytes() for path in kept} == first
        meta = json.loads((pair_dir / "meta.json").read_text())
        for split in ("train", "dev", "test"):
            rows = corpus.read_pairs_tsv(pair_dir / f"{split}.tsv")
            assert meta["counts"][split] == len(rows), split


def failed_twin(record):
    """A failed record for the same cell, which resume must run again."""
    return pipeline.CellRecord(
        src=record.src, tgt=record.tgt, fraction=record.fraction,
        status="failed", wall_time=0.5, error="injected",
    )


class TestJournal:
    def test_ledger_saved_at_powers_of_two_and_at_the_end(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        out = manifest.output_dir
        real_save = pipeline.RunLedger.save
        saves = []

        def counting_save(ledger, path):
            journal = path.with_name("ledger.journal")
            lines = journal.read_bytes().count(b"\n") if journal.exists() else None
            done = sum(c.status == "done" for c in ledger.cells.values())
            saves.append((done, lines))
            real_save(ledger, path)

        monkeypatch.setattr(pipeline.RunLedger, "save", counting_save)
        assert pipeline.run_experiment(manifest).all_done()
        # Each checkpoint comes after its cells are in the journal; the
        # journal goes only after the final save.
        assert saves == [(n, n) for n in (1, 2, 4, 8, 16, 18)]
        assert not (out / "ledger.journal").exists()

        saves.clear()
        files_before = bundle_files(out)
        assert pipeline.run_experiment(manifest).all_done()
        assert saves == [(18, None)]
        assert bundle_files(out) == files_before

    def test_journal_of_every_cell_completes_a_checkpoint(self, tmp_path, monkeypatch):
        # A run killed after its last cell but before its final save.
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        out = manifest.output_dir
        finished = pipeline.run_experiment(manifest)
        complete = (out / "ledger.json").read_bytes()
        checkpoint = pipeline.RunLedger(
            fingerprint=finished.fingerprint,
            cells={
                key: record if i < 16 else pipeline.CellRecord(*key)
                for i, (key, record) in enumerate(finished.cells.items())
            },
        )
        checkpoint.save(out / "ledger.json")
        (out / "ledger.journal").write_bytes(
            b"".join(finished.journal_line(r) for r in finished.cells.values())
        )

        def no_training(pairs, iterations):
            raise AssertionError("every cell is in the journal")

        monkeypatch.setattr(mtlearn.trainer, "train_model1", no_training)
        ledger = pipeline.run_experiment(manifest)
        assert ledger.all_done()
        assert (out / "ledger.json").read_bytes() == complete
        assert not (out / "ledger.journal").exists()

    @settings(max_examples=30, deadline=None)
    @given(
        picks=st.lists(st.tuples(st.integers(0, 17), st.booleans()), max_size=30),
        foreign=st.lists(st.integers(0, 17), max_size=3),
        data=st.data(),
    )
    def test_replay_restores_exactly_the_complete_lines(
        self, tiny_run, picks, foreign, data
    ):
        _, manifest, finished = tiny_run
        records = list(finished.cells.values())
        written = [
            failed_twin(records[i]) if failed else records[i] for i, failed in picks
        ]
        lines = [finished.journal_line(r) for r in written]
        journal = b"".join(lines)
        cut = data.draw(st.integers(0, len(journal)), label="cut")
        other = pipeline.RunLedger(fingerprint="0" * 64, cells={})
        tail = b"".join(other.journal_line(failed_twin(records[i])) for i in foreign)

        expected = {}
        end = 0
        for record, line in zip(written, lines):
            end += len(line)
            if end <= cut:
                expected[(record.src, record.tgt, record.fraction)] = record

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            shutil.copytree(manifest.output_dir, out)
            (out / "ledger.json").unlink()
            (out / "ledger.journal").write_bytes(journal[:cut] + tail)

            replayed = pipeline.RunLedger(fingerprint=finished.fingerprint, cells={})
            replayed.replay(out / "ledger.journal")
            assert replayed.cells == expected

            ledger = pipeline.run_experiment(
                dataclasses.replace(manifest, output_dir=out)
            )
            assert ledger.all_done()
            assert not (out / "ledger.journal").exists()
            for rel in bundle_files(manifest.output_dir):
                path = manifest.output_dir / rel
                if path.is_file() and rel != "ledger.json":
                    assert (out / rel).read_bytes() == path.read_bytes(), rel
            assert bundle_files(out) == bundle_files(manifest.output_dir)


class TestOneRunPerOutputDirectory:
    def test_second_run_is_refused_and_changes_nothing(self, tmp_path, capsys):
        manifest_path = make_experiment(tmp_path)
        manifest = pipeline.load_manifest(manifest_path)
        out = manifest.output_dir
        pipeline.run_experiment(manifest)
        # A bundle whose run was killed mid-way, so a run would have work.
        (out / "hyps" / "aa-bb" / "0.5.txt").unlink()

        def snapshot():
            return {
                p.relative_to(out).as_posix(): p.stat().st_mtime_ns
                for p in out.rglob("*")
            }

        before = snapshot()
        fd = os.open(out, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(pipeline.RunInProgressError):
                pipeline.run_experiment(manifest)
            assert cli.main(["run", "--manifest", str(manifest_path)]) == 2
            assert "another run" in capsys.readouterr().err
        finally:
            os.close(fd)
        assert snapshot() == before

        assert issubclass(pipeline.RunInProgressError, pipeline.LedgerError)
        # The lock goes with its holder.
        assert pipeline.run_experiment(manifest).all_done()


class TestReports:
    def constant_ledger(self):
        cells = {}
        for src, tgt in (("aa", "bb"), ("bb", "aa")):
            for fraction in sampling.FRACTION_GRID:
                cells[(src, tgt, fraction)] = pipeline.CellRecord(
                    src=src, tgt=tgt, fraction=fraction, status="done",
                    bleu=30.0, hypothesis_path="x", wall_time=0.0,
                )
        return pipeline.RunLedger(fingerprint="f" * 64, cells=cells)

    def test_build_report_refuses_unfinished_ledger(self, tmp_path):
        ledger = self.constant_ledger()
        ledger.cells[("aa", "bb", 0.2)].status = "pending"
        with pytest.raises(pipeline.LedgerError, match="aa-bb/0.2"):
            pipeline.build_report(
                ledger, analysis.embedded_matrices(), tmp_path
            )

    def test_constant_curves_give_auc_80(self, tmp_path):
        summary = pipeline.build_report(
            self.constant_ledger(), analysis.embedded_matrices(), tmp_path
        )
        assert summary["auc"]["aa-bb"] == 80.0
        assert summary["auc"]["bb-aa"] == 80.0
        # synthetic pairs do not appear in the Romance matrices
        assert summary["pearson_written"] is None
        assert summary["pearson_spoken"] is None
        assert (tmp_path / "curves.csv").is_file()
        assert (tmp_path / "auc.csv").is_file()
        assert (tmp_path / "plots" / "curves_aa.svg").is_file()
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written == summary

    def test_report_from_reference_auc_matches_pinned_correlations(self, tmp_path):
        summary = pipeline.report_from_auc(
            analysis.embedded_reference_auc(),
            analysis.embedded_matrices(),
            tmp_path,
        )
        assert summary["pearson_written"] == pytest.approx(
            0.7963487888653411, abs=1e-9
        )
        assert summary["pearson_spoken"] == pytest.approx(
            0.4920620011200588, abs=1e-9
        )
        assert summary["pearson_spoken_excl_ro"] == pytest.approx(
            0.7746280183774621, abs=1e-9
        )
        svg = (tmp_path / "plots" / "scatter_written.svg").read_text()
        assert "Pearson r = 0.796" in svg
        lines = (tmp_path / "scatter_spoken_excl_ro.csv").read_text().splitlines()
        assert sum(1 for l in lines[1:] if l.endswith(",true")) == 4

    def test_reference_report_bytes_pinned(self, tmp_path):
        # The only report that draws hollow (excluded) points.
        pipeline.report_from_auc(
            analysis.embedded_reference_auc(), analysis.embedded_matrices(), tmp_path
        )
        digests = {
            str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.rglob("*")
            if p.is_file()
        }
        assert digests == {
            "auc.csv": "a35a2e0e7bd68b20818d945eecd20100057492d0e05925673bec8ada2168ae54",
            "plots/scatter_spoken.svg": "1e85d9f68700370518a85120ca0e50063d83f252c5d4410727233eb403f4b15c",
            "plots/scatter_spoken_excl_ro.svg": "17bab15e67a7b048dc95b45530dd508daa3fb910e5035742da89e291e448f61e",
            "plots/scatter_written.svg": "ebadd539a10572239d8f804de5eab2c000c7cf49cd8e26b05d8dd66a827df189",
            "scatter_spoken.csv": "6391083414f245d8163b17a0ab460aa13e452122a3c4b174617e923927b547ec",
            "scatter_spoken_excl_ro.csv": "9cfe351cf855949b3ccf527ef2197330b6a690ceb2fa643ac5c5fc3e5123bbdb",
            "scatter_written.csv": "767610d624da9607d68397717730b93b4372df43593f5fdaf626e6e4f1268c20",
            "summary.json": "8e97db60a72b2a1a87206867f2448f38e6e505cb3d016ccee45dd3d665560e81",
        }

    def test_report_is_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            pipeline.report_from_auc(
                analysis.embedded_reference_auc(),
                analysis.embedded_matrices(),
                out,
            )
        files_a = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()


class TestExternalTrainerThroughPipeline:
    def test_copy_adapter_runs_whole_grid(self, tmp_path):
        manifest_path = make_experiment(
            tmp_path,
            trainer_cfg={
                "kind": "external",
                "command_template": "cp {test_src} {hyp_out} # {train}",
            },
        )
        manifest = pipeline.load_manifest(manifest_path)
        ledger = pipeline.run_experiment(manifest)
        assert ledger.all_done()
        out = manifest.output_dir
        assert (out / "corpus" / "aa-bb" / "test.src.txt").is_file()
        assert (out / "subsets" / "aa-bb" / "1.0.train.tsv").is_file()
        # the copy adapter emits source text as its hypothesis, so the
        # hypothesis file equals the test source exactly
        hyp = (out / "hyps" / "aa-bb" / "1.0.txt").read_text()
        src = (out / "corpus" / "aa-bb" / "test.src.txt").read_text()
        assert hyp == src
        for record in ledger.cells.values():
            assert record.bleu is not None

    def fresh_and_reused_bundles(self, tmp_path, monkeypatch, aa_line):
        """Bundles of a fresh run and of a rerun that reuses its corpus.

        ``aa_line`` rewrites each line of the aa target file, line end
        included. A fresh run builds its rows in memory, a corpus-reused run
        reads them back from the TSVs; both must feed the trainer the same
        text. Returns {path relative to output_dir: bytes} for each run,
        without ledger.json.
        """
        manifest_path = make_experiment(
            tmp_path,
            trainer_cfg={
                "kind": "external",
                "command_template": "cp {test_src} {hyp_out} # {train}",
            },
        )
        target = tmp_path / "data" / "aa.txt"
        lines = target.read_text().splitlines()
        target.write_bytes("".join(map(aa_line, lines)).encode("utf-8"))
        manifest = pipeline.load_manifest(manifest_path)
        out = manifest.output_dir

        def snapshot():
            return {
                str(f.relative_to(out)): f.read_bytes()
                for f in sorted(out.rglob("*"))
                if f.is_file() and f.name != "ledger.json"
            }

        assert pipeline.run_experiment(manifest).all_done()
        fresh = snapshot()
        # Keep the corpus, so the next run reuses it and re-runs every cell.
        for name in fresh.keys() | {"ledger.json"}:
            if not (name.startswith("corpus/") and name.endswith((".tsv", "/meta.json"))):
                (out / name).unlink()

        def no_rebuild(a, b):
            raise AssertionError("the corpus must be reused")

        monkeypatch.setattr(pipeline.corpus, "build_parallel", no_rebuild)
        assert pipeline.run_experiment(manifest).all_done()
        return fresh, snapshot()

    def test_tabs_in_sentences_give_the_same_bytes_fresh_and_reused(
        self, tmp_path, monkeypatch
    ):
        fresh, reused = self.fresh_and_reused_bundles(
            tmp_path, monkeypatch, lambda line: line.replace(" ", "\t", 1) + "\n"
        )
        assert reused == fresh
        subset_tsvs = [name for name in fresh if name.endswith(".train.tsv")]
        assert len(subset_tsvs) == 2 * len(sampling.FRACTION_GRID)
        for name in subset_tsvs:
            assert all(line.count(b"\t") == 1 for line in fresh[name].splitlines()), name
        for name in ("corpus/aa-bb/test.src.txt", "corpus/bb-aa/test.src.txt"):
            assert b"\t" not in fresh[name]

    def test_trailing_cr_gives_the_same_bytes_fresh_and_reused(
        self, tmp_path, monkeypatch
    ):
        # "x\r\r\n" reads as "x\r"; written as a last TSV column, that
        # final "\r" would read back as part of the line end.
        fresh, reused = self.fresh_and_reused_bundles(
            tmp_path, monkeypatch, lambda line: line + "\r\r\n"
        )
        assert reused == fresh
        assert all(b"\r" not in data for data in fresh.values())
        assert fresh["subsets/bb-aa/1.0.train.tsv"].endswith(b" \n")

    def test_resume_keeps_a_test_source_with_a_cr_inside(self, tmp_path, monkeypatch):
        # Read as text, "a\rb" would come back as "a\nb" and never match,
        # so every resume would rewrite the file.
        manifest_path = make_experiment(
            tmp_path,
            trainer_cfg={
                "kind": "external",
                "command_template": "cp {test_src} {hyp_out} # {train}",
            },
        )
        target = tmp_path / "data" / "aa.txt"
        lines = target.read_text().splitlines()
        target.write_bytes(
            "".join(line.replace(" ", "\r", 1) + "\n" for line in lines).encode("utf-8")
        )
        manifest = pipeline.load_manifest(manifest_path)
        assert pipeline.run_experiment(manifest).all_done()
        test_src = manifest.output_dir / "corpus" / "aa-bb" / "test.src.txt"
        assert b"\r" in test_src.read_bytes()
        old_ns = 1_000_000_000  # 1970; a rewrite gets the current time
        os.utime(test_src, ns=(old_ns, old_ns))

        def no_training(*args):
            raise AssertionError("a finished run must not train")

        monkeypatch.setattr(mtlearn.trainer, "run_external", no_training)
        assert pipeline.run_experiment(manifest).all_done()
        assert test_src.stat().st_mtime_ns == old_ns

    def test_output_dir_with_space_and_semicolon(self, tmp_path):
        manifest_path = make_experiment(
            tmp_path,
            trainer_cfg={
                "kind": "external",
                "command_template": "cat {train} > /dev/null && cp {test_src} {hyp_out}",
                "workdir": ".",
            },
        )
        raw = json.loads(manifest_path.read_text())
        raw["output_dir"] = "out dir;touch injected"
        manifest_path.write_text(json.dumps(raw))
        ledger = pipeline.run_experiment(pipeline.load_manifest(manifest_path))
        assert ledger.all_done(), ledger.failed()[:1]
        assert not list(tmp_path.rglob("injected"))

    def test_failing_external_command_marks_cells_failed(self, tmp_path):
        manifest_path = make_experiment(
            tmp_path,
            trainer_cfg={
                "kind": "external",
                "command_template": "false # {train} {test_src} {hyp_out}",
            },
        )
        manifest = pipeline.load_manifest(manifest_path)
        ledger = pipeline.run_experiment(manifest)
        assert len(ledger.failed()) == 18
        assert all("exited 1" in c.error for c in ledger.failed())
