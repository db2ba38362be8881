"""Tests for manifests, the experiment runner, resume, and reporting."""

import contextlib
import dataclasses
import fcntl
import gc
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtlearn.trainer
from mtlearn import analysis, bleu, cli, corpus, pipeline, sampling, trainer
from test_trainer import process_running


# A valid intelligibility matrix as a manifest writes it.
SCORES_20 = {analysis.pair_str(pair): 50.0 for pair in analysis.embedded_reference_auc()}


def make_experiment(root, trainer_cfg=None, n_sentences=100, seed=3, languages=("aa", "bb")):
    """Write a tiny ciphered experiment and its manifest.

    Every language is a word cipher of a shared pivot; each drops a
    different handful of pivot lines so pairing is nontrivial. The
    languages are "aa", "bb" and, when asked for, "cc".
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
    kept = {"aa": pivot[: n_sentences - 5], "bb": pivot[5:], "cc": pivot[:40] + pivot[45:]}
    kept = {lang: kept[lang] for lang in languages}
    for lang, lines in kept.items():
        ciphered = [" ".join(lang + w for w in line.split()) for line in lines]
        (data / f"{lang}.pivot.txt").write_text("\n".join(lines) + "\n")
        (data / f"{lang}.txt").write_text("\n".join(ciphered) + "\n")

    manifest = {
        "languages": list(kept),
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

    def test_a_manifest_that_is_not_utf8_is_a_manifest_error(self, tmp_path):
        path = make_experiment(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"out"', b'"\xffout"'))
        offset = path.read_bytes().index(b"\xff")
        with pytest.raises(pipeline.ManifestError) as raised:
            pipeline.load_manifest(path)
        assert str(raised.value) == (
            f"manifest {path} is not UTF-8: invalid start byte at byte offset {offset}"
        )

    def test_a_manifest_may_start_with_a_byte_order_mark(self, tmp_path):
        path = make_experiment(tmp_path)
        plain = pipeline.load_manifest(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert pipeline.load_manifest(path) == plain

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

    def test_files_of_an_unlisted_language_need_not_exist(self, tmp_path, capsys):
        path = make_experiment(tmp_path)
        base = pipeline.manifest_fingerprint(pipeline.load_manifest(path))
        raw = json.loads(path.read_text())
        raw["data_sources"]["cc"] = {"pivot": "data/ghost.txt", "target": "data/ghost2.txt"}
        path.write_text(json.dumps(raw))
        manifest = pipeline.load_manifest(path)
        assert manifest.data_sources["cc"][0] == (tmp_path / "data" / "ghost.txt").resolve()
        assert pipeline.manifest_fingerprint(manifest) == base
        assert cli.main(["run", "--manifest", str(path)]) == 0
        assert "18/18 cells done" in capsys.readouterr().out
        assert pipeline.finished_ledger(manifest).fingerprint == base

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

    @pytest.mark.parametrize(
        "keys, value, problem",
        [
            (("data_sources", "aa", "pivot"), 5, "data_sources.aa.pivot must be a JSON string"),
            (("data_sources", "bb", "target"), ["x"], "data_sources.bb.target must be"),
            (("trainer", "workdir"), 3, "trainer.workdir must be a JSON string"),
            (("seed",), 1.5, "seed must be a JSON integer"),
            (("seed",), True, "seed must be a JSON integer"),
            (("max_parallel_jobs",), True, "max_parallel_jobs must be a JSON integer"),
            (("max_parallel_jobs",), 2.0, "max_parallel_jobs must be a JSON integer"),
            (("split", "seed"), 1.5, "split.seed must be a JSON integer"),
            (("split", "seed"), False, "split.seed must be a JSON integer"),
            (("split", "dev_ratio"), "0.1", "split.dev_ratio must be a JSON number"),
            (("fractions",), [0.5, True], "each fraction must be a JSON number"),
            (("fractions",), 1.0, "fractions must be a list"),
            (("trainer", "em_iterations"), 1.5, "trainer.em_iterations must be a JSON integer"),
            (("trainer", "em_iterations"), True, "trainer.em_iterations must be a JSON integer"),
            (("output_dir",), 3, "output_dir must be a JSON string"),
        ],
    )
    def test_wrongly_typed_value_is_a_config_error(self, tmp_path, capsys, keys, value, problem):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        parent = raw
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError, match=problem):
            pipeline.load_manifest(path)
        assert cli.main(["run", "--manifest", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {problem}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "value, problem",
        [
            ("600", "trainer.timeout must be a JSON number, not '600'"),
            (True, "trainer.timeout must be a JSON number, not True"),
            (0, "bad trainer spec: timeout must be a finite number of seconds > 0, not 0"),
            (-5, "bad trainer spec: timeout must be a finite number of seconds > 0, not -5"),
            (
                float("nan"),
                "bad trainer spec: timeout must be a finite number of seconds > 0, not nan",
            ),
            (
                float("inf"),
                "bad trainer spec: timeout must be a finite number of seconds > 0, not inf",
            ),
            pytest.param(
                10**400,
                f"bad trainer spec: timeout must be a finite number of seconds > 0, not {10**400}",
                id="10**400",
            ),
        ],
    )
    def test_bad_trainer_timeout_is_a_config_error(self, tmp_path, capsys, value, problem):
        path = make_experiment(tmp_path, PREFIX_SWAP_TRAINER)
        raw = json.loads(path.read_text())
        raw["trainer"]["timeout"] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError) as raised:
            pipeline.load_manifest(path)
        assert str(raised.value) == problem
        assert cli.main(["run", "--manifest", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "out").exists()

    def test_fractional_trainer_timeout_is_accepted(self, tmp_path):
        path = make_experiment(tmp_path, PREFIX_SWAP_TRAINER)
        raw = json.loads(path.read_text())
        raw["trainer"]["timeout"] = 0.5
        path.write_text(json.dumps(raw))
        assert pipeline.load_manifest(path).trainer_spec.timeout == 0.5

    def test_null_split_seed_is_accepted(self, tmp_path):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["split"]["seed"] = None
        path.write_text(json.dumps(raw))
        assert pipeline.load_manifest(path).split_seed is None

    @pytest.mark.parametrize(
        "keys, value, problem",
        [
            ((), ["aa", "bb"], "manifest must be a JSON object"),
            (("languages",), "aa bb", "languages must be a list of language codes"),
            (("data_sources",), [], "data_sources must be an object"),
            (
                ("data_sources", "aa"),
                {"pivot": "data/aa.pivot.txt"},
                "data_sources['aa'] must have 'pivot' and 'target' paths",
            ),
            (("trainer",), "builtin-em", "trainer must be an object"),
            (
                ("matrices",),
                {"written": {"aa-bb": "high"}, "spoken": {}},
                "bad written matrix: could not convert string to float: 'high'",
            ),
            (
                ("matrices",),
                {"written": {"aa-bb": 10**400}, "spoken": {}},
                "bad written matrix: int too large to convert to float",
            ),
            (  # Python's json reads NaN and Infinity
                ("matrices",),
                {"written": {**SCORES_20, "ro-fr": float("nan")}, "spoken": SCORES_20},
                "bad written matrix: score for ro->fr must be positive and finite: nan",
            ),
            (
                ("matrices",),
                {"written": SCORES_20, "spoken": {**SCORES_20, "es-pt": float("inf")}},
                "bad spoken matrix: score for es->pt must be positive and finite: inf",
            ),
            (("split", "dev_ratio"), 10**400, "int too large to convert to float"),
            (("output_dir",), "out\x00", "bad output_dir 'out\\x00': embedded null byte"),
            (
                ("data_sources", "aa", "pivot"),
                "data/a\x00b",
                "bad data_sources.aa.pivot 'data/a\\x00b': embedded null byte",
            ),
            (("trainer", "workdir"), "a\x00b", "bad trainer.workdir 'a\\x00b': embedded null byte"),
        ],
        ids=["not-an-object", "languages", "data_sources", "source-entry", "trainer",
             "matrix", "matrix-overflow", "matrix-nan", "matrix-inf", "ratio-overflow",
             "output_dir", "source-nul", "workdir-nul"],
    )
    def test_misshapen_manifest_is_a_config_error(self, tmp_path, capsys, keys, value, problem):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        parent = raw
        for key in keys[:-1]:
            parent = parent[key]
        if keys:
            parent[keys[-1]] = value
        else:
            raw = value
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError) as raised:
            pipeline.load_manifest(path)
        assert str(raised.value) == problem
        assert cli.main(["run", "--manifest", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "out").exists()

    def test_bad_language_code(self, tmp_path):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["languages"] = ["aa", "B!"]
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError):
            pipeline.load_manifest(path)


BAD_SPLITS = [
    {"dev_ratio": 0.5, "test_ratio": 0.6},
    {"dev_ratio": 0.0, "test_ratio": 0.2},
    {"dev_ratio": 0.1, "test_ratio": 0},
    {"dev_ratio": -0.1, "test_ratio": 0.2},
    {"dev_ratio": float("nan"), "test_ratio": 0.2},
]


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
        with pytest.raises(pipeline.ManifestError, match="invalid language code: 'BB'"):
            pipeline.ExperimentManifest(**{**kwargs, "languages": ("aa", "BB")})
        with pytest.raises(pipeline.ManifestError, match="max_parallel_jobs"):
            pipeline.ExperimentManifest(**kwargs, max_parallel_jobs=0)
        with pytest.raises(pipeline.ManifestError, match="include 1.0"):
            pipeline.ExperimentManifest(**kwargs, fractions=(0.2, 0.5))
        with pytest.raises(pipeline.ManifestError, match="unique and ascending"):
            pipeline.ExperimentManifest(**kwargs, fractions=(0.5, 0.5, 1.0))
        with pytest.raises(pipeline.ManifestError, match=r"in \(0, 1\]"):
            pipeline.ExperimentManifest(**kwargs, fractions=(-0.1, 1.0))
        for fractions in ((1.0,), ()):
            with pytest.raises(pipeline.ManifestError, match="at least 2"):
                pipeline.ExperimentManifest(**kwargs, fractions=fractions)

    def test_a_single_fraction_is_refused_before_the_run(self, tmp_path, capsys):
        # One curve point gives no AUC; the run would fail only after
        # training every cell.
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["fractions"] = [1.0]
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--manifest", str(path)]) == 2
        assert "fractions must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_matrices_default_to_the_embedded_tables(self, tmp_path):
        manifest = pipeline.ExperimentManifest(**self.base_kwargs(tmp_path))
        assert manifest.matrices == analysis.embedded_matrices()
        assert pipeline.load_manifest(tmp_path / "manifest.json").matrices == manifest.matrices

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

    @pytest.mark.parametrize("split", BAD_SPLITS)
    def test_bad_split_is_rejected_at_load(self, tmp_path, split):
        path = make_experiment(tmp_path)
        raw = json.loads(path.read_text())
        raw["split"] = split
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.ManifestError, match="bad split: .*_ratio"):
            pipeline.load_manifest(path)
        kwargs = self.base_kwargs(tmp_path)
        with pytest.raises(pipeline.ManifestError, match="bad split"):
            pipeline.ExperimentManifest(**kwargs, **split)

    def test_bad_split_leaves_a_finished_bundle_untouched(self, tmp_path, capsys):
        # A run compares fingerprints, and drops a ledger that differs,
        # before it splits any pair; a bad split must stop it earlier.
        path = make_experiment(tmp_path)
        assert cli.main(["run", "--manifest", str(path)]) == 0
        out = tmp_path / "out"

        def bytes_and_mtimes():
            return {
                p.relative_to(out).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
                for p in out.rglob("*")
                if p.is_file()
            }

        before = bytes_and_mtimes()
        assert "ledger.json" in before
        raw = json.loads(path.read_text())
        for split in BAD_SPLITS:
            capsys.readouterr()
            raw["split"] = split
            path.write_text(json.dumps(raw))
            assert cli.main(["run", "--manifest", str(path)]) == 2
            assert bytes_and_mtimes() == before
            assert capsys.readouterr().err.startswith("error: bad split: ")

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

    def test_insensitive_to_inputs_of_unlisted_languages(self, tmp_path, monkeypatch):
        path = make_experiment(tmp_path, languages=("aa", "bb", "cc"))
        raw = json.loads(path.read_text())
        raw["languages"] = ["aa", "bb"]
        path.write_text(json.dumps(raw))
        manifest = pipeline.load_manifest(path)
        assert pipeline.run_experiment(manifest).all_done()
        base = pipeline.manifest_fingerprint(manifest)
        for name in ("cc.pivot.txt", "cc.txt"):
            data_file = tmp_path / "data" / name
            data_file.write_text(data_file.read_text() + "ccextra\n")
        manifest = pipeline.load_manifest(path)
        assert pipeline.manifest_fingerprint(manifest) == base
        ran = count_cells(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert ran == []
        assert sorted(p.name for p in pipeline._input_digests(manifest)) == [
            "aa.pivot.txt", "aa.txt", "bb.pivot.txt", "bb.txt",
        ]

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
                bleu=30.0, wall_time=0.1,
            )
        return pipeline.RunLedger(fingerprint="f" * 64, cells=cells)

    def test_roundtrip(self, tmp_path):
        ledger = self.make_ledger()
        path = tmp_path / "ledger.json"
        ledger.save(path)
        back = pipeline.RunLedger.load(path)
        assert back.fingerprint == ledger.fingerprint
        assert back.cells == ledger.cells

    @pytest.mark.parametrize(
        "edit",
        [
            {"bleu": None}, {"bleu": True}, {"bleu": "30.0"}, {"status": "running"},
            {"bleu": float("nan")}, {"bleu": float("inf")},
        ],
        ids=["null-bleu", "bool-bleu", "text-bleu", "unknown-status", "nan-bleu", "inf-bleu"],
    )
    def test_a_record_no_run_writes_is_refused(self, tmp_path, edit):
        ledger = self.make_ledger()
        bad = {**ledger.cells[("aa", "bb", 0.5)].to_dict(), **edit}
        with pytest.raises(ValueError):
            pipeline.CellRecord.from_dict(bad)

        path = tmp_path / "ledger.json"
        raw = json.loads(ledger.to_json())
        raw["cells"]["aa-bb/0.5"] = bad
        path.write_text(json.dumps(raw))
        with pytest.raises(pipeline.LedgerError, match="^malformed ledger "):
            pipeline.RunLedger.load(path)

        journal = tmp_path / "ledger.journal"
        good = ledger.cells[("aa", "bb", 1.0)]
        journal.write_bytes(
            json.dumps({"fingerprint": ledger.fingerprint, "cell": bad}).encode() + b"\n"
            + ledger.journal_line(good)
        )
        replayed = pipeline.RunLedger(fingerprint=ledger.fingerprint, cells={})
        assert replayed.replay(journal) == 1
        assert replayed.cells == {("aa", "bb", 1.0): good}

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


def count_cells(monkeypatch):
    """Record the (src, tgt, fraction) of every cell started.

    A cell starts with a `_run_cell` call for the builtin trainer and with
    a `_launch_cell` call for an external one. Returns the list the calls
    are appended to.
    """
    ran = []
    for name in ("_run_cell", "_launch_cell"):
        def counting(manifest, data, fraction, *rest, _real=getattr(pipeline, name)):
            ran.append((data.src, data.tgt, fraction))
            return _real(manifest, data, fraction, *rest)

        monkeypatch.setattr(pipeline, name, counting)
    return ran


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
        running = {"now": 0, "peak": 0}

        def tracking_train(pairs, iterations):
            running["now"] += 1
            running["peak"] = max(running["peak"], running["now"])
            try:
                time.sleep(0.01)  # gives a second cell the chance to start
                return real_train(pairs, iterations)
            finally:
                running["now"] -= 1

        monkeypatch.setattr(mtlearn.trainer, "train_model1", tracking_train)
        assert pipeline.run_experiment(manifest).all_done()
        assert running["peak"] == 1

    def test_workers_run_every_cell_once(self, tmp_path, monkeypatch):
        # More commands at a time than cores, so several often end in the
        # same turn of the run's loop.
        manifest = dataclasses.replace(
            pipeline.load_manifest(
                make_experiment(tmp_path, PREFIX_SWAP_TRAINER, languages=("aa", "bb", "cc"))
            ),
            max_parallel_jobs=6,
        )
        calls = count_preparation(monkeypatch)
        ran = count_cells(monkeypatch)
        ledger = pipeline.run_experiment(manifest)
        assert ledger.all_done()
        assert sorted(ran) == sorted(ledger.cells)
        assert prepared_pairs(calls) == manifest.pairs()
        saved = pipeline.RunLedger.load(manifest.output_dir / "ledger.json")
        assert saved.cells == ledger.cells

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
                    src="aa", tgt="bb", fraction=0.15, status="done", bleu=1.0,
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
        remaining = {"budget": 5}  # let 5 cells pass, fail the rest

        def flaky_train(pairs, iterations):
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

    @pytest.mark.parametrize("kind", ["builtin-em", "external"])
    def test_a_cell_whose_scoring_fails_is_recorded_failed_and_rerun_alone(
        self, tmp_path, monkeypatch, kind
    ):
        # Both trainers' hypotheses are scored in one place, which records
        # a failure of the scoring itself like one of training.
        trainer_cfg = PREFIX_SWAP_TRAINER if kind == "external" else None
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        real_bleu = bleu.corpus_bleu
        calls = []

        def third_call_fails(hyps, refs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("injected scoring failure")
            return real_bleu(hyps, refs)

        monkeypatch.setattr(bleu, "corpus_bleu", third_call_fails)
        first = pipeline.run_experiment(manifest)
        [failed] = first.failed()
        assert failed.error == "injected scoring failure"
        assert failed.bleu is None and failed.wall_time >= 0.0
        others = [c for c in first.cells.values() if c is not failed]
        assert len(others) == 17 and all(c.status == "done" for c in others)

        monkeypatch.setattr(bleu, "corpus_bleu", real_bleu)
        ran = count_cells(monkeypatch)
        second = pipeline.run_experiment(manifest)
        assert ran == [(failed.src, failed.tgt, failed.fraction)]
        assert second.all_done()

    def test_corpus_rebuild_cut_after_train_tsv_is_not_reused(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        pipeline.run_experiment(manifest)
        out = manifest.output_dir
        pair_dir = out / "corpus" / "aa-bb"
        kept = [pair_dir / "train.tsv", *sorted((out / "subsets" / "aa-bb").glob("*.json"))]
        first = {path: path.read_bytes() for path in kept}

        # Another split of the same data is cut right after train.tsv.
        real_write = corpus.write_text_atomic

        def write_then_cut(path, text):
            real_write(path, text)
            if path.name == "train.tsv":
                raise RuntimeError("cut")

        monkeypatch.setattr(corpus, "write_text_atomic", write_then_cut)
        with pytest.raises(RuntimeError, match="cut"):
            pipeline.run_experiment(dataclasses.replace(manifest, test_ratio=0.3))
        assert (pair_dir / "train.tsv").read_bytes() != first[pair_dir / "train.tsv"]

        monkeypatch.setattr(corpus, "write_text_atomic", real_write)
        assert pipeline.run_experiment(manifest).all_done()
        assert {path: path.read_bytes() for path in kept} == first
        meta = json.loads((pair_dir / "meta.json").read_text())
        for split in ("train", "dev", "test"):
            rows = corpus.read_pairs_tsv(pair_dir / f"{split}.tsv")
            assert meta["counts"][split] == len(rows), split


# An external trainer that learns nothing but gets BLEU above 0 on the tiny
# experiment: it swaps the two cipher prefixes of the test source.
PREFIX_SWAP_TRAINER = {
    "kind": "external",
    "command_template": "sed y/ab/ba/ {test_src} > {hyp_out} # {train}",
}


class Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt that stops a run."""


def interrupt_every_journal_line(ledger, record):
    raise Interrupt


def interrupt_journal_line(monkeypatch, call):
    """Make only the call-th `RunLedger.journal_line` call of a run raise."""
    real_journal_line = pipeline.RunLedger.journal_line
    calls = [0]

    def journal_line(ledger, record):
        calls[0] += 1
        if calls[0] == call:
            raise Interrupt
        return real_journal_line(ledger, record)

    monkeypatch.setattr(pipeline.RunLedger, "journal_line", journal_line)


def count_preparation(monkeypatch):
    """Record the calls of pair preparation and of what it reads and builds.

    Returns {function name: [positional args of each call]}.
    """
    calls = {}
    for module, name in (
        (pipeline, "_prepare_pair"),
        (corpus, "load_pivot_bitext"),
        (corpus, "read_pairs_tsv"),
        (sampling, "subsample"),
    ):
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.setdefault(_name, []).append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def prepared_pairs(calls):
    return [args[3:] for args in calls.get("_prepare_pair", [])]


def remove(path):
    """Delete a file, or a directory with everything in it."""
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()


def bundle_bytes(out, skip=("ledger.json",)):
    """{path relative to the bundle: bytes} of every file not in skip."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.relative_to(out).as_posix() not in skip
    }


# The run of make_experiment(languages=("aa", "bb", "cc")) as far as the
# names of its cells and files go; no file is read to build it.
THREE_LANGUAGES = pipeline.ExperimentManifest(
    languages=("aa", "bb", "cc"),
    data_sources={lang: (Path(), Path()) for lang in ("aa", "bb", "cc")},
    output_dir=Path(),
)


def all_keys(manifest):
    """Every cell key of ``manifest``, in ledger order."""
    return [(src, tgt, f) for src, tgt in manifest.pairs() for f in manifest.fractions]


def hyp_path(key):
    """A cell's hypothesis file, relative to output_dir."""
    src, tgt, fraction = key
    return f"hyps/{src}-{tgt}/{pipeline.fraction_slug(fraction)}.txt"


def pair_file_paths(manifest):
    """Every file `_pair_files` lists and every cell's hypothesis file, as
    ``<top>/<src>-<tgt>/<name>`` paths relative to output_dir, sorted."""
    return sorted({
        f"{top}/{src}-{tgt}/{name}"
        for top, names in pipeline._pair_files(manifest).items()
        for src, tgt in manifest.pairs()
        for name in names
    } | {hyp_path(key) for key in all_keys(manifest)})


@pytest.fixture(scope="module")
def three_language_run(tmp_path_factory):
    """A finished builtin run of three languages: its manifest, its ledger
    and its bundle but ledger.json."""
    manifest = pipeline.load_manifest(
        make_experiment(tmp_path_factory.mktemp("three"), languages=("aa", "bb", "cc"))
    )
    ledger = pipeline.run_experiment(manifest)
    assert ledger.all_done()
    assert pair_file_paths(manifest) == pair_file_paths(THREE_LANGUAGES)
    return manifest, ledger, bundle_bytes(manifest.output_dir)


class TestLazyResume:
    """A rerun prepares only the pairs it has work for."""

    def test_finished_bundle_prepares_and_reads_nothing(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert pipeline.run_experiment(manifest).all_done()
        before = bundle_bytes(manifest.output_dir, skip=())
        calls = count_preparation(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert calls == {}
        assert bundle_bytes(manifest.output_dir, skip=()) == before

    def test_a_fresh_run_draws_one_permutation_per_prepared_pair(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(make_experiment(tmp_path, languages=("aa", "bb", "cc")))
        calls = count_preparation(monkeypatch)
        drawn = []

        def permutation(n, seed, _real=sampling.permutation):
            drawn.append(seed)
            return _real(n, seed)

        monkeypatch.setattr(sampling, "permutation", permutation)
        assert pipeline.run_experiment(manifest).all_done()
        pairs = prepared_pairs(calls)
        assert len(pairs) == 6
        assert len(calls["subsample"]) == len(pairs)
        assert sorted(drawn) == sorted(manifest.pair_subset_seed(*pair) for pair in pairs)

    def test_missing_hypothesis_prepares_only_its_pair(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert pipeline.run_experiment(manifest).all_done()
        out = manifest.output_dir
        before = bundle_bytes(out)
        (out / "hyps" / "bb-aa" / "0.5.txt").unlink()
        calls = count_preparation(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert prepared_pairs(calls) == [("bb", "aa")]
        # The pair is built again from its two bitexts; no TSV is read back.
        assert len(calls["load_pivot_bitext"]) == 2
        assert "read_pairs_tsv" not in calls
        assert bundle_bytes(out) == before

    def test_a_done_cell_is_trusted_only_with_the_file_its_key_names(
        self, tmp_path, monkeypatch
    ):
        # Records of older versions name a hypothesis file; a rerun ignores
        # the name and checks the cell's own file.
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert pipeline.run_experiment(manifest).all_done()
        out = manifest.output_dir
        fresh = bundle_bytes(out)
        raw = json.loads((out / "ledger.json").read_text())
        raw["cells"]["aa-bb/0.2"]["hypothesis_path"] = "hyps/aa-bb/0.3.txt"
        (out / "ledger.json").write_text(json.dumps(raw))
        (out / "hyps" / "aa-bb" / "0.2.txt").unlink()
        ran = count_cells(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert ran == [("aa", "bb", 0.2)]
        assert bundle_bytes(out) == fresh

    def test_a_ledger_and_journal_of_older_records_resume_without_training(
        self, tmp_path, monkeypatch
    ):
        # Older versions wrote each done record with its hypothesis_path.
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        finished = pipeline.run_experiment(manifest)
        out = manifest.output_dir
        fresh = bundle_bytes(out)

        def older(key):
            src, tgt, fraction = key
            return {
                **finished.cells[key].to_dict(),
                "hypothesis_path": f"hyps/{src}-{tgt}/{pipeline.fraction_slug(fraction)}.txt",
            }

        keys = list(finished.cells)
        journaled = keys[::4]
        cells = {
            finished.key_str(k): pipeline.CellRecord(*k).to_dict() if k in journaled else older(k)
            for k in keys
        }
        (out / "ledger.json").write_text(
            json.dumps({"fingerprint": finished.fingerprint, "cells": cells})
        )
        (out / "ledger.journal").write_bytes(b"".join(
            json.dumps({"fingerprint": finished.fingerprint, "cell": older(k)}).encode() + b"\n"
            for k in journaled
        ))
        ran = count_cells(monkeypatch)
        assert pipeline.run_experiment(manifest).cells == finished.cells
        assert ran == []
        assert not (out / "ledger.journal").exists()
        assert bundle_bytes(out) == fresh
        assert pipeline.RunLedger.load(out / "ledger.json") == finished

    @pytest.mark.parametrize(
        "rel, fractions_run",
        [("hyps/aa-bb", sampling.FRACTION_GRID), ("hyps/aa-bb/0.5.txt", (0.5,))],
    )
    def test_hypothesis_missing_or_a_directory_runs_again(
        self, tmp_path, monkeypatch, rel, fractions_run
    ):
        # A removed hyps/<pair>/ holds no file; a directory in place of a
        # hypothesis file is no file either.
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert pipeline.run_experiment(manifest).all_done()
        remove(manifest.output_dir / rel)
        if rel.endswith(".txt"):
            (manifest.output_dir / rel).mkdir()
        calls = count_preparation(monkeypatch)
        ran = count_cells(monkeypatch)
        pipeline.run_experiment(manifest)
        assert ran == [("aa", "bb", f) for f in fractions_run]
        assert prepared_pairs(calls) == [("aa", "bb")]

    @pytest.mark.parametrize(
        "rel, trainer_cfg, bitexts_loaded",
        [
            ("subsets/aa-bb/0.5.json", None, 2),
            ("corpus/aa-bb/meta.json", None, 2),
            ("corpus/aa-bb/test.src.txt", PREFIX_SWAP_TRAINER, 2),
            ("subsets/aa-bb", None, 2),
            ("corpus/aa-bb", None, 2),
            ("corpus/aa-bb/train.tsv", None, 2),
            ("corpus/aa-bb/test.tsv", None, 2),
            ("corpus/aa-bb/dev.tsv", None, 2),
            ("subsets/aa-bb/0.5.train.tsv", PREFIX_SWAP_TRAINER, 2),
        ],
    )
    def test_missing_prepared_file_is_restored(
        self, tmp_path, monkeypatch, rel, trainer_cfg, bitexts_loaded
    ):
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        assert pipeline.run_experiment(manifest).all_done()
        out = manifest.output_dir
        before = bundle_bytes(out, skip=())
        remove(out / rel)
        calls = count_preparation(monkeypatch)
        ran = count_cells(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert prepared_pairs(calls) == [("aa", "bb")]
        assert len(calls.get("load_pivot_bitext", [])) == bitexts_loaded
        assert ran == []
        # No cell ran, so even ledger.json is unchanged.
        assert bundle_bytes(out, skip=()) == before

    @pytest.mark.parametrize("trainer_cfg", [None, PREFIX_SWAP_TRAINER])
    def test_a_fresh_run_writes_exactly_the_pair_files(self, tmp_path, trainer_cfg):
        # A rerun restores a pair only when a file `_pair_files` lists is
        # missing, so a file written but not listed would never be restored.
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        assert pipeline.run_experiment(manifest).all_done()
        listed = pipeline._pair_files(manifest)
        assert sorted(listed) == ["corpus", "hyps", "subsets"]
        for pair in manifest.pairs():
            name = "-".join(pair)
            assert {
                top: sorted(os.listdir(manifest.output_dir / top / name)) for top in listed
            } == {top: sorted(names) for top, names in listed.items()}

    def test_interrupted_run_of_another_manifest_is_not_trusted(
        self, tmp_path, monkeypatch
    ):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert pipeline.run_experiment(manifest).all_done()
        fresh = bundle_bytes(manifest.output_dir)

        other = dataclasses.replace(manifest, seed=manifest.seed + 1)
        monkeypatch.setattr(pipeline.RunLedger, "journal_line", interrupt_every_journal_line)
        with pytest.raises(Interrupt):
            pipeline.run_experiment(other)
        monkeypatch.undo()

        assert pipeline.run_experiment(manifest).all_done()
        assert bundle_bytes(manifest.output_dir) == fresh

    def test_rerun_replaces_no_file(self, tmp_path):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        out = manifest.output_dir

        def finish():
            ledger = pipeline.run_experiment(manifest)
            pipeline.build_report(ledger, analysis.embedded_matrices(), out)

        def inodes_and_mtimes():
            return {
                p.relative_to(out).as_posix(): (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in out.rglob("*")
                if p.is_file()
            }

        finish()
        before = inodes_and_mtimes()
        assert "ledger.json" in before and "summary.json" in before
        finish()
        assert inodes_and_mtimes() == before
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize(
        "content",
        [
            b'{"fingerprint": "x", "cells": []}',
            b'{"fingerprint": "x", "cells": {"aa-bb/0.2": 1}}',
            b'{"fingerprint": "x", "cells": {"aa-bb/0.2": {"colour": 1}}}',
            b'{"fingerprint": 7, "cells": {}}',
            b'{"cells": {}}',
            b"[]",
            b"not json",
            b"\xff\xfe",
        ],
    )
    def test_malformed_ledger_is_removed_before_the_run_writes(
        self, tmp_path, monkeypatch, content
    ):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        ledger_path = manifest.output_dir / "ledger.json"
        manifest.output_dir.mkdir()
        ledger_path.write_bytes(content)
        with pytest.raises(pipeline.LedgerError, match="malformed ledger"):
            pipeline.RunLedger.load(ledger_path)

        # A pair is prepared at its first cell, so a later preparation may
        # see this run's own checkpoint, but never the malformed bytes.
        fingerprint = pipeline.manifest_fingerprint(manifest)
        real_prepare = pipeline._prepare_pair
        seen = []

        def prepare_after_removal(*args):
            seen.append(
                pipeline.RunLedger.load(ledger_path).fingerprint
                if ledger_path.exists() else None
            )
            return real_prepare(*args)

        monkeypatch.setattr(pipeline, "_prepare_pair", prepare_after_removal)
        ledger = pipeline.run_experiment(manifest)
        assert ledger.all_done()
        assert seen[0] is None
        assert set(seen) <= {None, fingerprint}
        assert pipeline.RunLedger.load(ledger_path).fingerprint == ledger.fingerprint

    @pytest.mark.parametrize("content", [b"[]", b'"fingerprint"', b"\xff\xfe"])
    def test_malformed_meta_rebuilds_the_corpus(self, tmp_path, monkeypatch, content):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert pipeline.run_experiment(manifest).all_done()
        out = manifest.output_dir
        fresh = bundle_bytes(out)
        (out / "hyps" / "aa-bb" / "0.5.txt").unlink()
        (out / "corpus" / "aa-bb" / "meta.json").write_bytes(content)
        calls = count_preparation(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert prepared_pairs(calls) == [("aa", "bb")]
        assert len(calls["load_pivot_bitext"]) == 2
        assert bundle_bytes(out) == fresh

    def test_restore_and_cells_in_one_walk(self, tmp_path, monkeypatch):
        # One pair only misses a subset file, the next only a hypothesis.
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert pipeline.run_experiment(manifest).all_done()
        out = manifest.output_dir
        fresh = bundle_bytes(out)
        (out / "subsets" / "aa-bb" / "0.5.json").unlink()
        (out / "hyps" / "bb-aa" / "0.5.txt").unlink()
        calls = count_preparation(monkeypatch)
        ran = count_cells(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert prepared_pairs(calls) == [("aa", "bb"), ("bb", "aa")]
        assert ran == [("bb", "aa", 0.5)]
        assert not (out / "ledger.journal").exists()
        assert bundle_bytes(out) == fresh

    @settings(max_examples=40, deadline=None)
    @example(deleted=set(), pending=set())
    @example(deleted={"subsets/aa-bb/0.5.json", "hyps/bb-aa/0.5.txt"}, pending=set())
    @example(deleted={"subsets/aa-bb/0.5.json"}, pending={("bb", "aa", 0.5)})
    @given(
        deleted=st.sets(st.sampled_from(pair_file_paths(THREE_LANGUAGES)), max_size=6),
        pending=st.sets(st.sampled_from(all_keys(THREE_LANGUAGES)), max_size=6),
    )
    def test_a_rerun_prepares_and_runs_exactly_what_is_missing(
        self, three_language_run, deleted, pending
    ):
        manifest, finished, fresh = three_language_run
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            shutil.copytree(manifest.output_dir, out)
            for rel in deleted:
                (out / rel).unlink()
            path = out / "ledger.json"
            raw = json.loads(path.read_text())
            for key in pending:
                raw["cells"][finished.key_str(key)] = pipeline.CellRecord(*key).to_dict()
            path.write_text(json.dumps(raw))

            to_run = [
                key for key in all_keys(manifest)
                if key in pending or hyp_path(key) in deleted
            ]
            missing = {rel.split("/")[1] for rel in deleted}
            with pytest.MonkeyPatch.context() as mp:
                calls = count_preparation(mp)
                ran = count_cells(mp)
                ledger = pipeline.run_experiment(dataclasses.replace(manifest, output_dir=out))
            assert ledger.all_done()
            assert prepared_pairs(calls) == [
                pair for pair in manifest.pairs()
                if "-".join(pair) in missing or any(key[:2] == pair for key in to_run)
            ]
            assert ran == to_run
            assert bundle_bytes(out) == fresh


class TestReusedOutputDirectory:
    """A run into another manifest's output directory gives a fresh bundle."""

    @pytest.mark.parametrize("change", ["languages", "grid", "trainer"])
    def test_a_reused_directory_ends_with_a_fresh_bundle(self, tmp_path, change):
        first_kwargs = {
            "languages": {"languages": ("aa", "bb", "cc")},
            "grid": {},
            "trainer": {"trainer_cfg": PREFIX_SWAP_TRAINER},
        }[change]
        first = pipeline.load_manifest(make_experiment(tmp_path / "first", **first_kwargs))
        second = pipeline.load_manifest(make_experiment(tmp_path / "second"))
        if change == "grid":
            second = dataclasses.replace(second, fractions=(0.5, 1.0))
        assert pipeline.run_experiment(second).all_done()
        fresh = bundle_bytes(second.output_dir)

        out = first.output_dir
        assert pipeline.run_experiment(first).all_done()
        # As a killed write of this manifest's run leaves them.
        (out / "subsets" / "aa-bb" / "1.0.json.tmp").write_text("{")
        (out / "hyps" / "bb-aa" / "1.0.txt.tmp").write_text("")
        assert pipeline.run_experiment(dataclasses.replace(second, output_dir=out)).all_done()
        assert bundle_bytes(out) == fresh

    def test_a_run_stopped_by_its_inputs_removes_nothing(self, tmp_path):
        first = pipeline.load_manifest(
            make_experiment(tmp_path / "first", languages=("aa", "bb", "cc"))
        )
        out = first.output_dir
        assert pipeline.run_experiment(first).all_done()
        (out / "hyps" / "aa-bb" / "1.0.txt.tmp").write_text("")
        before = bundle_bytes(out, skip=())

        path = make_experiment(tmp_path / "second")
        target = tmp_path / "second" / "data" / "bb.txt"
        target.write_text("".join(target.read_text().splitlines(keepends=True)[:-1]))
        second = dataclasses.replace(pipeline.load_manifest(path), output_dir=out)
        with pytest.raises(ValueError, match="line count mismatch"):
            pipeline.run_experiment(second)
        assert bundle_bytes(out, skip=()) == before


class TestLedgerWrites:
    """ledger.json is written only when it would change, and never lies."""

    def test_rerun_with_nothing_to_do_serializes_no_record(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(make_experiment(tmp_path))
        assert pipeline.run_experiment(manifest).all_done()
        before = bundle_bytes(manifest.output_dir, skip=())
        calls = []
        for owner, name in ((pipeline.RunLedger, "save"), (pipeline.CellRecord, "to_dict")):
            def counting(*args, _real=getattr(owner, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(owner, name, counting)
        assert pipeline.run_experiment(manifest).all_done()
        assert calls == []
        assert bundle_bytes(manifest.output_dir, skip=()) == before

    @settings(max_examples=40, deadline=None)
    @example(steps=[("drop_cell", 0)])
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["fresh", "rerun", "stale_cell", "foreign"])),
                st.tuples(st.sampled_from(["delete_hyp", "drop_cell"]), st.integers(0, 17)),
                st.tuples(st.just("killed"), st.lists(st.integers(0, 17), max_size=4)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_ledger_json_loads_as_the_ledger_returned(self, tiny_run, steps):
        _, manifest, finished = tiny_run
        keys = list(finished.cells)

        def edit_ledger(out, edit):
            # By hand: another layout than RunLedger.save writes.
            path = out / "ledger.json"
            raw = json.loads(path.read_text())
            edit(raw["cells"])
            path.write_text(json.dumps(raw))

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            shutil.copytree(manifest.output_dir, out)
            for step, *args in steps:
                before = bundle_bytes(out, skip=())
                if step == "fresh":
                    shutil.rmtree(out)
                elif step == "stale_cell":
                    stale = pipeline.CellRecord("aa", "bb", 0.15, "done", 1.0)
                    edit_ledger(out, lambda cells: cells.update({"aa-bb/0.15": stale.to_dict()}))
                elif step == "foreign":
                    foreign = pipeline.RunLedger(fingerprint="0" * 64, cells=finished.cells)
                    foreign.save(out / "ledger.json")
                elif step == "delete_hyp":
                    src, tgt, fraction = keys[args[0]]
                    (out / "hyps" / f"{src}-{tgt}" / f"{pipeline.fraction_slug(fraction)}.txt").unlink()
                elif step == "drop_cell":
                    edit_ledger(out, lambda cells: cells.pop(finished.key_str(keys[args[0]])))
                elif step == "killed":
                    # The checkpoint shows the journaled cells pending; the
                    # last line is torn.
                    picked = [keys[i] for i in args[0]]
                    edit_ledger(out, lambda cells: cells.update(
                        {finished.key_str(k): pipeline.CellRecord(*k).to_dict() for k in picked}
                    ))
                    journal = b"".join(finished.journal_line(finished.cells[k]) for k in picked)
                    (out / "ledger.journal").write_bytes(journal + b'{"fingerprint": ')
                # From the first pair on, ledger.json holds nothing or this
                # run's grid.
                seen = []

                def prepare(*args, _real=pipeline._prepare_pair):
                    path = out / "ledger.json"
                    seen.append(set(pipeline.RunLedger.load(path).cells) if path.exists() else None)
                    return _real(*args)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(pipeline, "_prepare_pair", prepare)
                    ledger = pipeline.run_experiment(dataclasses.replace(manifest, output_dir=out))
                assert all(cells in (None, set(keys)) for cells in seen)
                assert ledger.all_done()
                assert pipeline.RunLedger.load(out / "ledger.json") == ledger
                assert not (out / "ledger.journal").exists()
                if step == "rerun":
                    assert bundle_bytes(out, skip=()) == before


def script_trainer(root, script):
    """An external trainer that runs ``script`` with sh from ``root``.

    The script gets the cell's training subset, test source and hypothesis
    file as $1, $2 and $3.
    """
    root.mkdir(parents=True, exist_ok=True)
    (root / "trainer.sh").write_text(script)
    return {
        "kind": "external",
        "command_template": "sh trainer.sh {train} {test_src} {hyp_out}",
        "workdir": ".",
    }


def journaled(manifest):
    """{cell key: record} of the complete lines in the run's journal."""
    ledger = pipeline.RunLedger(fingerprint=pipeline.manifest_fingerprint(manifest), cells={})
    ledger.replay(manifest.output_dir / "ledger.journal")
    return ledger.cells


def recorded_pids(path):
    """The process ids that script trainers wrote to ``path``, one or more a line."""
    return [int(pid) for pid in path.read_text().split()]


def none_running(pids, wait=10.0):
    """Whether every process in ``pids`` is gone, allowing ``wait`` seconds
    for processes killed just now to die."""
    deadline = time.monotonic() + wait
    while any(map(process_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(map(process_running, pids))


@contextlib.contextmanager
def ctrl_c_raises():
    """SIGINT raises KeyboardInterrupt in the block, as in a terminal."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


class TestInterrupt:
    def test_interrupt_cancels_queued_cells(self, tmp_path, monkeypatch):
        # A stopped run starts no cell after the exception that stopped it,
        # here the first journal line, nor more than it runs at once: 1 for
        # the builtin trainer, max_parallel_jobs = 2 for the external one.
        # Repeated, since a race shows only at times.
        ran = count_cells(monkeypatch)
        started_at_stop = []

        def interrupt(ledger, record):
            started_at_stop.append(len(ran))
            raise Interrupt

        monkeypatch.setattr(pipeline.RunLedger, "journal_line", interrupt)
        for trainer_cfg, most in ((None, 1), (PREFIX_SWAP_TRAINER, 2)):
            for attempt in range(5):
                root = tmp_path / f"{most}-{attempt}"
                manifest = pipeline.load_manifest(make_experiment(root, trainer_cfg))
                assert manifest.max_parallel_jobs == 2
                ran.clear()
                started_at_stop.clear()
                with pytest.raises(Interrupt):
                    pipeline.run_experiment(manifest)
                assert len(ran) == started_at_stop[0], (trainer_cfg, attempt)
                assert 1 <= len(ran) <= most, (trainer_cfg, attempt)

    def test_a_failing_worker_stops_the_others_at_once(self, tmp_path, monkeypatch):
        # The first journal line raises while the command of aa-bb/0.3 still
        # sleeps; no cell starts in the 0.5 s the run waits for it, and it
        # is journaled once it ends.
        trainer_cfg = script_trainer(
            tmp_path,
            'case "$1" in *0.3.train.tsv) sleep 0.5;; esac\n'
            'sed y/ab/ba/ "$2" > "$3"\n',
        )
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        ran = count_cells(monkeypatch)
        started_at_stop = []
        real_journal_line = pipeline.RunLedger.journal_line

        def first_line_fails(ledger, record):
            if not started_at_stop:
                started_at_stop.append(len(ran))
                raise Interrupt
            return real_journal_line(ledger, record)

        monkeypatch.setattr(pipeline.RunLedger, "journal_line", first_line_fails)
        with pytest.raises(Interrupt):
            pipeline.run_experiment(manifest)
        assert started_at_stop == [len(ran)]
        assert ("aa", "bb", 0.3) in ran
        records = journaled(manifest)
        assert len(records) == len(ran) - 1
        assert records[("aa", "bb", 0.3)].status == "done"

    def test_interrupt_of_the_waiting_thread_lets_the_running_cell_finish(
        self, tmp_path, monkeypatch
    ):
        # Ctrl-C reaches the run while it waits for its commands: the
        # command of aa-bb/0.3 sends SIGINT. Both running commands finish
        # and are journaled, and no cell starts after them.
        trainer_cfg = script_trainer(
            tmp_path,
            f'case "$1" in *0.3.train.tsv) kill -INT {os.getpid()}; sleep 0.2;; esac\n'
            'sed y/ab/ba/ "$2" > "$3"\n',
        )
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        ran = count_cells(monkeypatch)
        with ctrl_c_raises(), pytest.raises(KeyboardInterrupt):
            pipeline.run_experiment(manifest)
        assert ran[:2] == [("aa", "bb", 0.2), ("aa", "bb", 0.3)]
        records = journaled(manifest)
        assert sorted(records) == sorted(ran)
        assert all(record.status == "done" for record in records.values())

    def test_cells_running_when_the_run_stops_are_journaled(self, tmp_path, monkeypatch):
        fresh = pipeline.load_manifest(make_experiment(tmp_path / "fresh", PREFIX_SWAP_TRAINER))
        assert pipeline.run_experiment(fresh).all_done()
        manifest = pipeline.load_manifest(make_experiment(tmp_path / "cut", PREFIX_SWAP_TRAINER))
        out = manifest.output_dir
        ran = count_cells(monkeypatch)
        interrupt_journal_line(monkeypatch, 3)
        with pytest.raises(Interrupt):
            pipeline.run_experiment(manifest)
        # Every cell but the one whose journal line raised is recorded,
        # including any other command running at the time.
        journaled = (out / "ledger.journal").read_bytes().count(b"\n")
        assert journaled == len(ran) - 1

        monkeypatch.undo()
        ran = count_cells(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert len(ran) == 18 - journaled
        assert bundle_bytes(out) == bundle_bytes(fresh.output_dir)

    def test_interrupt_while_a_worker_starts_loses_no_cell(self, tmp_path, monkeypatch):
        # Ctrl-C arrives while the first cell starts: inside the builtin
        # trainer's first training, or as the first external command is
        # launched. That cell still runs and is journaled, and no other
        # cell starts. The signal goes to the process, as a terminal's
        # does, and numpy's BLAS threads, which do not block it, exist.
        import numpy  # noqa: F401

        real_train = trainer.train_model1
        real_popen = subprocess.Popen

        def train_then_interrupt(*args):
            os.kill(os.getpid(), signal.SIGINT)
            return real_train(*args)

        def launch_then_interrupt(*args, **kwargs):
            proc = real_popen(*args, **kwargs)
            os.kill(os.getpid(), signal.SIGINT)
            return proc

        for trainer_cfg in (None, PREFIX_SWAP_TRAINER):
            root = tmp_path / ("builtin" if trainer_cfg is None else "external")
            manifest = pipeline.load_manifest(make_experiment(root, trainer_cfg))
            ran = count_cells(monkeypatch)
            monkeypatch.setattr(mtlearn.trainer, "train_model1", train_then_interrupt)
            monkeypatch.setattr(subprocess, "Popen", launch_then_interrupt)
            with ctrl_c_raises(), pytest.raises(KeyboardInterrupt):
                pipeline.run_experiment(manifest)
            monkeypatch.undo()
            assert len(ran) == 1, trainer_cfg
            records = journaled(manifest)
            assert list(records) == ran
            assert all(record.status == "done" for record in records.values())

            ran = count_cells(monkeypatch)
            assert pipeline.run_experiment(manifest).all_done()
            assert len(ran) == 17
            monkeypatch.undo()

    def test_second_interrupt_while_a_pair_is_prepared_still_stops_the_run(
        self, tmp_path, monkeypatch
    ):
        # The first Ctrl-C arrives while bb-aa is prepared, which stops it,
        # and aa-bb/1.0's command still runs: the run waits for it. The
        # command sends a second Ctrl-C, which kills it and everything it
        # started. No cell of bb-aa starts, the other aa-bb cells are
        # journaled, and no thread or child process is left.
        trainer_cfg = script_trainer(
            tmp_path,
            'case "$1" in *1.0.train.tsv)\n'
            '  sleep 30 & echo $$ $! >> pids\n'
            '  while [ ! -e preparing ]; do sleep 0.01; done\n'
            f'  sleep 0.2; kill -INT {os.getpid()}; wait;;\n'
            'esac\n'
            'sed y/ab/ba/ "$2" > "$3"\n',
        )
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        threads_before = set(threading.enumerate())
        real_prepare = pipeline._prepare_pair

        def interrupted_second_pair(*args):
            if args[3:] == ("bb", "aa"):
                (tmp_path / "preparing").touch()
                os.kill(os.getpid(), signal.SIGINT)
            return real_prepare(*args)

        ran = count_cells(monkeypatch)
        monkeypatch.setattr(pipeline, "_prepare_pair", interrupted_second_pair)
        began = time.monotonic()
        with ctrl_c_raises(), pytest.raises(KeyboardInterrupt):
            pipeline.run_experiment(manifest)
        assert time.monotonic() - began < 15  # well before the child would end
        assert set(threading.enumerate()) == threads_before
        assert ran == [("aa", "bb", f) for f in manifest.fractions]
        assert sorted(journaled(manifest)) == ran[:-1]
        assert none_running(recorded_pids(tmp_path / "pids"))

    @pytest.mark.parametrize("interrupts", [1, 2])
    def test_a_second_interrupt_kills_the_running_commands(
        self, tmp_path, monkeypatch, interrupts
    ):
        # aa-bb/0.3's command sends SIGINT once both running commands have
        # started a background child. After one Ctrl-C the run waits for
        # both: their children end, and both cells are journaled. A second
        # one, 0.5 s later, kills both commands' process groups while their
        # children sleep for 30 s, and journals nothing. No thread and no
        # child process is left either way.
        sleep = 1 if interrupts == 1 else 30
        second = f"sleep 0.5; kill -INT {os.getpid()}" if interrupts == 2 else "true"
        trainer_cfg = script_trainer(
            tmp_path,
            f'sleep {sleep} & echo $$ $! >> pids\n'
            'case "$1" in *0.3.train.tsv)\n'
            f'  kill -INT {os.getpid()}; {second};;\n'
            'esac\n'
            'wait\n'
            'sed y/ab/ba/ "$2" > "$3"\n',
        )
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        threads_before = set(threading.enumerate())
        ran = count_cells(monkeypatch)
        began = time.monotonic()
        with ctrl_c_raises(), pytest.raises(KeyboardInterrupt):
            pipeline.run_experiment(manifest)
        assert time.monotonic() - began < 15  # well before the children would end
        assert set(threading.enumerate()) == threads_before
        assert ran == [("aa", "bb", 0.2), ("aa", "bb", 0.3)]
        pids = recorded_pids(tmp_path / "pids")
        assert len(pids) == 4
        assert none_running(pids)
        records = journaled(manifest)
        if interrupts == 1:
            assert sorted(records) == ran
            assert all(record.status == "done" for record in records.values())
        else:
            assert records == {}

    @pytest.mark.parametrize("trainer_cfg", [None, PREFIX_SWAP_TRAINER])
    def test_a_run_starts_no_thread(self, tmp_path, monkeypatch, trainer_cfg):
        def no_thread(thread):
            raise AssertionError("a run must not start a thread")

        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert pipeline.run_experiment(manifest).all_done()


class TestExternalCommands:
    """External cells through the run: timeouts, concurrency and cleanup."""

    def test_a_command_past_its_timeout_fails_alone(self, tmp_path):
        trainer_cfg = script_trainer(
            tmp_path,
            'case "$1" in */aa-bb/0.5.train.tsv)\n'
            '  sleep 30 > /dev/null 2>&1 & echo $! > child.pid; wait;;\n'
            'esac\n'
            'sed y/ab/ba/ "$2" > "$3"\n',
        )
        trainer_cfg["timeout"] = 0.5
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        ledger = pipeline.run_experiment(manifest)
        failed = ledger.failed()
        assert [(c.src, c.tgt, c.fraction) for c in failed] == [("aa", "bb", 0.5)]
        assert "timed out after 0.5s" in failed[0].error
        assert sum(c.status == "done" for c in ledger.cells.values()) == 17
        assert none_running(recorded_pids(tmp_path / "child.pid"))
        gc.collect()  # a pipe left open would warn here, which fails the test

    def test_a_command_that_cannot_start_fails_its_cell(self, tmp_path, monkeypatch):
        # The workdir is there when the run starts and gone when the
        # commands are launched.
        workdir = tmp_path / "gone dir"
        workdir.mkdir()
        trainer_cfg = dict(PREFIX_SWAP_TRAINER, workdir=workdir.name)
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        real_prepare = pipeline._prepare_pair

        def prepare_without_workdir(*args):
            shutil.rmtree(workdir, ignore_errors=True)
            return real_prepare(*args)

        monkeypatch.setattr(pipeline, "_prepare_pair", prepare_without_workdir)
        ledger = pipeline.run_experiment(manifest)
        assert len(ledger.failed()) == 18
        assert all("gone dir" in c.error for c in ledger.failed())

    def test_a_missing_workdir_stops_the_run_before_any_pair_is_prepared(
        self, tmp_path, monkeypatch, capsys
    ):
        path = make_experiment(tmp_path, dict(PREFIX_SWAP_TRAINER, workdir="no-such-dir"))
        manifest = pipeline.load_manifest(path)  # reporting needs no workdir
        calls = count_preparation(monkeypatch)
        ran = count_cells(monkeypatch)
        problem = f"trainer.workdir {tmp_path.resolve() / 'no-such-dir'} is not a directory"
        with pytest.raises(pipeline.ManifestError) as raised:
            pipeline.run_experiment(manifest)
        assert str(raised.value) == problem
        assert calls == {}
        assert ran == []
        assert cli.main(["run", "--manifest", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert os.listdir(manifest.output_dir) == []

        # A finished run needs it no more: a rerun runs no command.
        (tmp_path / "no-such-dir").mkdir()
        assert cli.main(["run", "--manifest", str(path)]) == 0
        (tmp_path / "no-such-dir").rmdir()
        assert cli.main(["run", "--manifest", str(path)]) == 0
        assert cli.main(["report", "--manifest", str(path)]) == 0

    def test_an_omitted_workdir_is_the_manifests_directory(self, tmp_path, monkeypatch):
        # The script sits next to the manifest; the run starts elsewhere.
        trainer_cfg = script_trainer(tmp_path, 'sed y/ab/ba/ "$2" > "$3"\n')
        del trainer_cfg["workdir"]
        path = make_experiment(tmp_path, trainer_cfg)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        manifest = pipeline.load_manifest(path)
        assert manifest.trainer_spec.workdir == str(tmp_path.resolve())
        assert cli.main(["run", "--manifest", str(path)]) == 0
        assert pipeline.finished_ledger(manifest).all_done()
        gc.collect()

    def test_a_failing_command_keeps_only_the_tail_of_its_output(self, tmp_path):
        # Each command prints 2 MB and fails. Kept whole, its output made
        # each record's error 2 MB long and ledger.json 8 MB.
        trainer_cfg = script_trainer(tmp_path, "yes | head -c 2000000; exit 1\n")
        path = make_experiment(tmp_path, trainer_cfg)
        raw = json.loads(path.read_text())
        raw["fractions"] = [0.5, 1.0]
        path.write_text(json.dumps(raw))
        manifest = pipeline.load_manifest(path)
        ledger = pipeline.run_experiment(manifest)
        assert len(ledger.failed()) == 4
        for record in ledger.failed():
            assert f"[{2_000_000 - trainer.OUTPUT_TAIL} earlier bytes cut]" in record.error
            assert len(record.error) < 10_000
        assert (manifest.output_dir / "ledger.json").stat().st_size < 100_000
        gc.collect()

    def test_at_most_max_parallel_jobs_commands_run_at_once(self, tmp_path):
        # Each command marks its start and its end in a log, and sleeps
        # between them long enough that the slots are always full.
        trainer_cfg = script_trainer(
            tmp_path,
            'echo + >> log; sleep 0.1; sed y/ab/ba/ "$2" > "$3"; echo - >> log\n',
        )
        manifest = dataclasses.replace(
            pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg)),
            max_parallel_jobs=3,
        )
        assert pipeline.run_experiment(manifest).all_done()
        alive = peak = 0
        for mark in (tmp_path / "log").read_text().split():
            alive += 1 if mark == "+" else -1
            peak = max(peak, alive)
        assert alive == 0
        assert peak == 3
        gc.collect()


class TestBoundedMemory:
    """A pair's working set lives from its first cell to its last."""

    @pytest.mark.parametrize("trainer_cfg, alive", [(None, 1), (PREFIX_SWAP_TRAINER, 2)])
    def test_working_sets_and_bitexts_alive_at_each_cell(
        self, tmp_path, monkeypatch, trainer_cfg, alive
    ):
        manifest = pipeline.load_manifest(
            make_experiment(tmp_path, trainer_cfg, languages=("aa", "bb", "cc"))
        )
        assert manifest.max_parallel_jobs == 2
        real_prepare = pipeline._prepare_pair
        real_load = corpus.load_pivot_bitext
        working_sets = weakref.WeakSet()
        prepared = []
        bitexts = []

        def tracking_prepare(*args):
            gc.collect()
            assert len(working_sets) <= alive - 1
            data = real_prepare(*args)
            working_sets.add(data)
            prepared.append(args[3:])
            return data

        def tracking_load(pivot, target, lang):
            bitexts.append(lang)
            return real_load(pivot, target, lang)

        def check(manifest, data):
            gc.collect()
            assert len(working_sets) <= alive
            assert len(prepared) == len(set(prepared))

        # A cell starts with `_run_cell` (builtin) or `_launch_cell` (external).
        for name in ("_run_cell", "_launch_cell"):
            def checking(manifest, data, *rest, _real=getattr(pipeline, name)):
                check(manifest, data)
                return _real(manifest, data, *rest)

            monkeypatch.setattr(pipeline, name, checking)
        monkeypatch.setattr(pipeline, "_prepare_pair", tracking_prepare)
        monkeypatch.setattr(corpus, "load_pivot_bitext", tracking_load)
        assert pipeline.run_experiment(manifest).all_done()
        assert sorted(prepared) == sorted(manifest.pairs())
        assert sorted(bitexts) == ["aa", "bb", "cc"]  # each loaded once

    def test_bitexts_share_their_pivot_lines(self, tmp_path, monkeypatch):
        manifest = pipeline.load_manifest(
            make_experiment(tmp_path, languages=("aa", "bb", "cc"))
        )
        pivot_lines = {}
        real_build = corpus.build_parallel

        def keeping_build(a, b):
            for bitext in (a, b):
                pivot_lines[bitext.lang] = {id(s): s for s in bitext.pivot_lines}
            return real_build(a, b)

        monkeypatch.setattr(corpus, "build_parallel", keeping_build)
        assert pipeline.run_experiment(manifest).all_done()
        by_text = {}
        for lines in pivot_lines.values():
            for s in lines.values():
                by_text.setdefault(s, set()).add(id(s))
        assert len(by_text) == 100  # every pivot sentence, in 2 or 3 bitexts
        assert all(len(ids) == 1 for ids in by_text.values())


class TestPreparationFailure:
    @pytest.mark.parametrize("trainer_cfg", [None, PREFIX_SWAP_TRAINER])
    def test_a_misaligned_input_stops_the_run_before_any_cell(
        self, tmp_path, monkeypatch, capsys, trainer_cfg
    ):
        # cc is first used by the second pair, aa-cc; its target file lost
        # its last line.
        path = make_experiment(tmp_path, trainer_cfg, languages=("aa", "bb", "cc"))
        target = tmp_path / "data" / "cc.txt"
        target.write_text("".join(target.read_text().splitlines(keepends=True)[:-1]))
        manifest = pipeline.load_manifest(path)
        pivot, target = manifest.data_sources["cc"]
        problem = f"line count mismatch: {pivot} has 95 lines, {target} has 94"
        calls = count_preparation(monkeypatch)
        ran = count_cells(monkeypatch)
        with pytest.raises(ValueError) as raised:
            pipeline.run_experiment(manifest)
        assert str(raised.value) == problem
        assert "_prepare_pair" not in calls
        assert ran == []
        assert os.listdir(manifest.output_dir) == []  # no journal, no hypothesis file
        assert cli.main(["run", "--manifest", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert os.listdir(manifest.output_dir) == []

    @pytest.mark.parametrize(
        "fault, problem",
        [("misaligned input", "line count mismatch"), ("missing workdir", "is not a directory")],
    )
    def test_a_run_stopped_by_its_inputs_keeps_another_manifests_ledger(
        self, tmp_path, monkeypatch, fault, problem
    ):
        manifest = pipeline.load_manifest(make_experiment(tmp_path / "a"))
        assert pipeline.run_experiment(manifest).all_done()
        ledger_path = manifest.output_dir / "ledger.json"
        before = ledger_path.read_bytes()
        journal_path = manifest.output_dir / "ledger.journal"
        journal_path.write_bytes(b'{"torn')  # as a killed run of the first manifest leaves it

        external = dict(PREFIX_SWAP_TRAINER, workdir="no-such-dir")
        path = make_experiment(tmp_path / "b", external if fault == "missing workdir" else None)
        if fault == "misaligned input":
            target = tmp_path / "b" / "data" / "bb.txt"
            target.write_text("".join(target.read_text().splitlines(keepends=True)[:-1]))
        other = dataclasses.replace(
            pipeline.load_manifest(path), seed=manifest.seed + 1, output_dir=manifest.output_dir
        )
        with pytest.raises(ValueError, match=problem):
            pipeline.run_experiment(other)
        assert ledger_path.read_bytes() == before
        assert journal_path.read_bytes() == b'{"torn'

        ran = count_cells(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert ran == []

    @pytest.mark.parametrize("trainer_cfg", [None, PREFIX_SWAP_TRAINER])
    def test_failed_preparation_stops_the_run_and_a_rerun_completes_it(
        self, tmp_path, monkeypatch, trainer_cfg
    ):
        languages = ("aa", "bb", "cc")
        fresh = pipeline.load_manifest(
            make_experiment(tmp_path / "fresh", trainer_cfg, languages=languages)
        )
        assert pipeline.run_experiment(fresh).all_done()
        manifest = pipeline.load_manifest(
            make_experiment(tmp_path / "cut", trainer_cfg, languages=languages)
        )
        out = manifest.output_dir
        pairs = manifest.pairs()
        fault = ValueError("injected")
        real_prepare = pipeline._prepare_pair

        def third_pair_fails(*args):
            if args[3:] == pairs[2]:
                raise fault
            return real_prepare(*args)

        ran = count_cells(monkeypatch)
        monkeypatch.setattr(pipeline, "_prepare_pair", third_pair_fails)
        with pytest.raises(ValueError) as raised:
            pipeline.run_experiment(manifest)
        assert raised.value is fault
        earlier = [(src, tgt, f) for src, tgt in pairs[:2] for f in manifest.fractions]
        assert sorted(ran) == earlier
        journaled = pipeline.RunLedger(
            fingerprint=pipeline.manifest_fingerprint(manifest), cells={}
        )
        journaled.replay(out / "ledger.journal")
        assert sorted(journaled.cells) == earlier

        monkeypatch.undo()
        ran = count_cells(monkeypatch)
        assert pipeline.run_experiment(manifest).all_done()
        assert sorted(ran) == sorted(
            (src, tgt, f) for src, tgt in pairs[2:] for f in manifest.fractions
        )
        assert bundle_bytes(out) == bundle_bytes(fresh.output_dir)


def interrupted_replace(src, dst):
    raise KeyboardInterrupt


def half_write_then_full_disk(path, data):
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError(28, "No space left on device")


class TestWriteTextAtomic:
    @pytest.mark.parametrize(
        "owner, name, fault, error",
        [
            (os, "replace", interrupted_replace, KeyboardInterrupt),
            (Path, "write_bytes", half_write_then_full_disk, OSError),
        ],
    )
    def test_a_cut_write_keeps_the_old_bytes_and_leaves_no_tmp(
        self, tmp_path, monkeypatch, owner, name, fault, error
    ):
        target = tmp_path / "scores.csv"
        target.write_bytes(b"old\n")
        monkeypatch.setattr(owner, name, fault)
        with pytest.raises(error):
            corpus.write_text_atomic(target, "new bytes\n")
        monkeypatch.undo()
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["scores.csv"]

    def test_directory_is_made_only_when_missing(self, tmp_path, monkeypatch):
        made = []
        real_mkdir = Path.mkdir
        monkeypatch.setattr(
            Path, "mkdir", lambda path, *a, **kw: made.append(path) or real_mkdir(path, *a, **kw)
        )
        sub = tmp_path / "hyps" / "aa-bb"
        corpus.write_text_atomic(sub / "0.2.txt", "x\n")
        assert made[0] == sub
        made.clear()
        corpus.write_text_atomic(sub / "0.3.txt", "y\n")
        assert made == []
        assert sorted(os.listdir(sub)) == ["0.2.txt", "0.3.txt"]
        assert (sub / "0.2.txt").read_text() == "x\n"


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

        # ledger.json already holds the ledger of a rerun that runs nothing.
        saves.clear()
        files_before = bundle_files(out)
        assert pipeline.run_experiment(manifest).all_done()
        assert saves == []
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


def _refingerprint(path):
    ledger = pipeline.RunLedger.load(path)
    ledger.fingerprint = "0" * 64
    ledger.save(path)


def _unfinish(path):
    ledger = pipeline.RunLedger.load(path)
    ledger.cells[("bb", "aa", 0.5)].status = "failed"
    ledger.save(path)


class TestFinishedLedger:
    def test_a_finished_run_gives_its_ledger(self, tiny_run):
        _, manifest, ledger = tiny_run
        assert pipeline.finished_ledger(manifest) == ledger

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (Path.unlink, "^no ledger at .*; run the pipeline first$"),
            (lambda path: path.write_text('{"cells": {}}'), "^malformed ledger "),
            (_refingerprint, "does not match the inputs and settings of the manifest"),
            (_unfinish, "^ledger has 1 unfinished cells: bb-aa/0.5$"),
        ],
        ids=["missing", "malformed", "other-inputs", "unfinished"],
    )
    def test_refusals(self, tiny_run, tmp_path, damage, problem):
        _, manifest, _ = tiny_run
        path = tmp_path / "ledger.json"
        shutil.copyfile(manifest.output_dir / "ledger.json", path)
        damage(path)
        with pytest.raises(pipeline.LedgerError, match=problem):
            pipeline.finished_ledger(dataclasses.replace(manifest, output_dir=tmp_path))


class TestReports:
    def constant_ledger(self, languages=("aa", "bb")):
        cells = {}
        for src, tgt in itertools.permutations(languages, 2):
            for fraction in sampling.FRACTION_GRID:
                cells[(src, tgt, fraction)] = pipeline.CellRecord(
                    src=src, tgt=tgt, fraction=fraction, status="done",
                    bleu=30.0, wall_time=0.0,
                )
        return pipeline.RunLedger(fingerprint="f" * 64, cells=cells)

    def test_build_report_refuses_unfinished_ledger(self, tmp_path):
        ledger = self.constant_ledger()
        ledger.cells[("aa", "bb", 0.2)].status = "pending"
        with pytest.raises(pipeline.LedgerError, match="aa-bb/0.2"):
            pipeline.build_report(
                ledger, analysis.embedded_matrices(), tmp_path
            )

    def test_a_pair_without_a_curve_refuses_the_report(self, tmp_path):
        ledger = self.constant_ledger()
        ledger.cells[("bb", "aa", 1.0)].bleu = 0.0
        with pytest.raises(
            pipeline.LedgerError,
            match=r"^pair bb-aa: BLEU at fraction 1\.0 is 0; relative curve undefined$",
        ):
            pipeline.build_report(ledger, analysis.embedded_matrices(), tmp_path)
        assert list(tmp_path.iterdir()) == []

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
            "plots/scatter_written.svg": "12771304e695c07a97adcc213b9c4dad96ad1c4ed68c72d9c379c63126c1ea4f",
            "scatter_spoken.csv": "6391083414f245d8163b17a0ab460aa13e452122a3c4b174617e923927b547ec",
            "scatter_spoken_excl_ro.csv": "9cfe351cf855949b3ccf527ef2197330b6a690ceb2fa643ac5c5fc3e5123bbdb",
            "scatter_written.csv": "767610d624da9607d68397717730b93b4372df43593f5fdaf626e6e4f1268c20",
            "summary.json": "8e97db60a72b2a1a87206867f2448f38e6e505cb3d016ccee45dd3d665560e81",
        }

    @pytest.mark.parametrize("scale", [1e160, 1e306, 1e-170])
    def test_matrix_scale_leaves_the_correlations(self, tmp_path, scale):
        # Sums or squares of these scores leave float range unless pearson
        # scales them first: r would read 0 (1e160), overflow (1e306) or be
        # undefined (1e-170).
        matrices = tuple(
            analysis.IntelligibilityMatrix(
                medium=m.medium, scores={pair: v * scale for pair, v in m.scores.items()}
            )
            for m in analysis.embedded_matrices()
        )
        summary = pipeline.report_from_auc(analysis.embedded_reference_auc(), matrices, tmp_path)
        assert summary["pearson_written"] == pytest.approx(0.7963487888653411, abs=1e-9)
        assert summary["pearson_spoken"] == pytest.approx(0.4920620011200588, abs=1e-9)
        assert summary["pearson_spoken_excl_ro"] == pytest.approx(0.7746280183774621, abs=1e-9)
        assert "Pearson r = 0.796" in (tmp_path / "plots" / "scatter_written.svg").read_text()

    def test_a_view_without_points_loses_its_old_plot(self, tmp_path):
        # aa and bb are in no Romance matrix, so no view of this report has
        # a point; the Table 3 plots before it must not stay beside it.
        pipeline.report_from_auc(
            analysis.embedded_reference_auc(), analysis.embedded_matrices(), tmp_path
        )
        summary = pipeline.build_report(
            self.constant_ledger(), analysis.embedded_matrices(), tmp_path
        )
        assert summary["pearson_written"] is None
        assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == [
            "curves_aa.svg", "curves_bb.svg",
        ]

    def test_matrices_may_score_the_runs_own_languages(self, tmp_path):
        # Six entries score every ordered pair of three languages.
        path = make_experiment(tmp_path, languages=("aa", "bb", "cc"))
        raw = json.loads(path.read_text())
        pairs = [f"{src}-{tgt}" for src, tgt in itertools.permutations(("aa", "bb", "cc"), 2)]
        raw["matrices"] = {
            "written": {pair: 50.0 + 7 * i for i, pair in enumerate(pairs)},
            "spoken": {pair: 90.0 - i * i for i, pair in enumerate(pairs)},
        }
        path.write_text(json.dumps(raw))
        manifest = pipeline.load_manifest(path)
        assert pipeline.run_experiment(manifest).all_done()
        summary = pipeline.build_report(
            pipeline.finished_ledger(manifest), manifest.matrices, manifest.output_dir
        )
        assert summary["pearson_written"] is not None
        rows = (manifest.output_dir / "scatter_written.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == sorted(pairs)

    def test_a_source_no_longer_reported_loses_its_curves_plot(self, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        matrices = analysis.embedded_matrices()
        pipeline.build_report(self.constant_ledger(("aa", "bb", "cc")), matrices, reused)
        assert (reused / "plots" / "curves_cc.svg").is_file()
        pipeline.build_report(self.constant_ledger(), matrices, reused)
        pipeline.build_report(self.constant_ledger(), matrices, fresh)
        assert sorted(p.name for p in (reused / "plots").iterdir()) == sorted(
            p.name for p in (fresh / "plots").iterdir()
        ) == ["curves_aa.svg", "curves_bb.svg"]

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
    @pytest.mark.parametrize("trainer_cfg", [None, PREFIX_SWAP_TRAINER])
    def test_each_split_is_formatted_once(self, tmp_path, monkeypatch, trainer_cfg):
        # The external trainer's subset TSVs reuse the lines that
        # write_split_bundle formatted for train.tsv.
        manifest = pipeline.load_manifest(make_experiment(tmp_path, trainer_cfg))
        formatted = []

        def recording(pairs, _real=corpus.tsv_lines):
            formatted.append(list(pairs))
            return _real(pairs)

        monkeypatch.setattr(corpus, "tsv_lines", recording)
        assert pipeline.run_experiment(manifest).all_done()
        splits = [
            corpus.read_pairs_tsv(manifest.output_dir / "corpus" / f"{src}-{tgt}" / name)
            for src, tgt in manifest.pairs()
            for name in ("train.tsv", "dev.tsv", "test.tsv")
        ]
        assert sorted(formatted) == sorted(splits)

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

    def test_a_rerun_scores_no_hypothesis_file_of_the_run_before(self, tmp_path, capsys):
        # The second command exits 0 and writes nothing; the first run's
        # files must not be scored as its output.
        path = make_experiment(
            tmp_path, {"kind": "external", "command_template": "cp {test_src} {hyp_out} # {train}"}
        )
        manifest = pipeline.load_manifest(path)
        assert pipeline.run_experiment(manifest).all_done()
        hyps = manifest.output_dir / "hyps"
        assert len(list(hyps.glob("*/*.txt"))) == 18
        raw = json.loads(path.read_text())
        raw["trainer"]["command_template"] = "true {train} {test_src} {hyp_out}"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--manifest", str(path)]) == 1
        capsys.readouterr()
        ledger = pipeline.RunLedger.load(manifest.output_dir / "ledger.json")
        assert len(ledger.failed()) == len(ledger.cells) == 18
        assert all("no hypothesis file" in c.error for c in ledger.failed())
        assert list(hyps.glob("*/*.txt")) == []

    def test_short_hypothesis_file_fails_alike_in_a_run_and_alone(self, tmp_path):
        # A run counts a pair's test sources in memory; run_external counts
        # the lines of test.src.txt. A file one line short fails both the same.
        manifest_path = make_experiment(
            tmp_path,
            trainer_cfg={
                "kind": "external",
                "command_template": "sed '$d' {test_src} > {hyp_out} # {train}",
            },
        )
        manifest = pipeline.load_manifest(manifest_path)
        ledger = pipeline.run_experiment(manifest)
        assert len(ledger.failed()) == 18
        out = manifest.output_dir
        for cell in ledger.failed():
            pair, slug = f"{cell.src}-{cell.tgt}", pipeline.fraction_slug(cell.fraction)
            test_src = out / "corpus" / pair / "test.src.txt"
            hyp = out / "hyps" / pair / f"{slug}.txt"
            n = len(corpus.read_lines(test_src))
            assert cell.error == f"hypothesis file {hyp} has {n - 1} lines, expected {n}"
            with pytest.raises(trainer.ExternalTrainerError) as alone:
                trainer.run_external(
                    manifest.trainer_spec,
                    str(out / "subsets" / pair / f"{slug}.train.tsv"),
                    str(test_src),
                    str(hyp),
                )
            assert str(alone.value) == cell.error

    def fresh_and_reused_bundles(self, tmp_path, aa_line):
        """Bundles of a fresh run and of a rerun over its corpus files.

        ``aa_line`` rewrites each line of the aa target file, line end
        included. The rerun finds only the corpus TSVs and meta.json, so it
        runs every cell again; both runs must feed the trainer the same
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
        # Keep the corpus; the next run re-runs every cell.
        for name in fresh.keys() | {"ledger.json"}:
            if not (name.startswith("corpus/") and name.endswith((".tsv", "/meta.json"))):
                (out / name).unlink()
        assert pipeline.run_experiment(manifest).all_done()
        return fresh, snapshot()

    def test_tabs_in_sentences_give_the_same_bytes_fresh_and_reused(self, tmp_path):
        fresh, reused = self.fresh_and_reused_bundles(
            tmp_path, lambda line: line.replace(" ", "\t", 1) + "\n"
        )
        assert reused == fresh
        subset_tsvs = [name for name in fresh if name.endswith(".train.tsv")]
        assert len(subset_tsvs) == 2 * len(sampling.FRACTION_GRID)
        for name in subset_tsvs:
            assert all(line.count(b"\t") == 1 for line in fresh[name].splitlines()), name
        for name in ("corpus/aa-bb/test.src.txt", "corpus/bb-aa/test.src.txt"):
            assert b"\t" not in fresh[name]

    def test_trailing_cr_gives_the_same_bytes_fresh_and_reused(self, tmp_path):
        # "x\r\r\n" reads as "x\r"; written as a last TSV column, that
        # final "\r" would read back as part of the line end.
        fresh, reused = self.fresh_and_reused_bundles(
            tmp_path, lambda line: line + "\r\r\n"
        )
        assert reused == fresh
        assert all(b"\r" not in data for data in fresh.values())
        assert fresh["subsets/bb-aa/1.0.train.tsv"].endswith(b" \n")

    def test_subset_files_are_pairs_tsv_of_their_rows(self, tmp_path):
        fresh, reused = self.fresh_and_reused_bundles(
            tmp_path,
            lambda line: line.replace(" ", "\t", 1).replace(" ", "\u2028", 1) + "\r\r\n",
        )
        assert reused == fresh
        for pair in ("aa-bb", "bb-aa"):
            rows = corpus.read_pairs_tsv(tmp_path / "out" / "corpus" / pair / "train.tsv")
            assert any("\u2028" in side for row in rows for side in row)
            for fraction in sampling.FRACTION_GRID:
                slug = pipeline.fraction_slug(fraction)
                indices = json.loads(fresh[f"subsets/{pair}/{slug}.json"])["indices"]
                expected = "".join(corpus.tsv_lines([rows[i] for i in indices]))
                assert fresh[f"subsets/{pair}/{slug}.train.tsv"] == expected.encode("utf-8")

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

        monkeypatch.setattr(pipeline, "_launch_cell", no_training)
        assert pipeline.run_experiment(manifest).all_done()
        assert test_src.stat().st_mtime_ns == old_ns

    def test_run_and_report_never_import_numpy(self, tmp_path):
        # numpy raises peak RSS by about 13 MB, a third of what an
        # external-trainer run needs; only the builtin trainer imports it.
        manifest_path = make_experiment(tmp_path, PREFIX_SWAP_TRAINER)
        src = str(Path(pipeline.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from mtlearn import cli\n"
            f"assert cli.main(['run', '--manifest', {str(manifest_path)!r}]) == 0\n"
            f"assert cli.main(['run', '--manifest', {str(manifest_path)!r}]) == 0\n"
            f"assert cli.main(['report', '--manifest', {str(manifest_path)!r}]) == 0\n"
            "print('numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "False"

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
