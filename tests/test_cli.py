"""End-to-end tests of every CLI subcommand through cli.main()."""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mtlearn import analysis, cli, corpus, pipeline, sampling, synthetic


@pytest.fixture
def tiny_bitexts(tmp_path):
    """Two small ciphered bitexts over a shared pivot, plus a manifest."""
    rnd = random.Random(11)
    vocab = [f"t{i:02d}" for i in range(30)]
    pivot, seen = [], set()
    while len(pivot) < 90:
        sent = " ".join(rnd.choice(vocab) for _ in range(rnd.randrange(3, 7)))
        if sent not in seen:
            seen.add(sent)
            pivot.append(sent)
    data = tmp_path / "data"
    data.mkdir()
    kept = {"aa": pivot[:86], "bb": pivot[4:]}
    for lang, lines in kept.items():
        (data / f"{lang}.pivot.txt").write_text("\n".join(lines) + "\n")
        (data / f"{lang}.txt").write_text(
            "\n".join(" ".join(lang + w for w in l.split()) for l in lines) + "\n"
        )
    manifest = {
        "languages": ["aa", "bb"],
        "data_sources": {
            lang: {"pivot": f"data/{lang}.pivot.txt", "target": f"data/{lang}.txt"}
            for lang in kept
        },
        "split": {"dev_ratio": 0.1, "test_ratio": 0.2},
        "seed": 5,
        "trainer": {"kind": "builtin-em", "em_iterations": 2},
        "max_parallel_jobs": 2,
        "output_dir": "out",
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return tmp_path, manifest_path


class TestTables:
    def test_all_tables_printed(self, capsys):
        assert cli.main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "written intelligibility" in out
        assert "spoken intelligibility" in out
        assert "reference learning-curve AUC" in out
        assert "86.40" in out  # written es->pt
        assert "35.7" in out  # spoken es->pt
        assert "74.71" in out  # AUC es->pt

    def test_single_table_selection(self, capsys):
        assert cli.main(["tables", "--which", "spoken"]) == 0
        out = capsys.readouterr().out
        assert "spoken intelligibility" in out
        assert "written intelligibility" not in out
        assert "62.0" in out  # spoken pt->es


class TestBuildCorpus:
    def test_builds_and_reports_counts(self, tiny_bitexts, capsys):
        root, _ = tiny_bitexts
        out_dir = root / "pairout"
        rc = cli.main(
            [
                "build-corpus",
                "--lang-a", "aa", "--pivot-a", str(root / "data/aa.pivot.txt"),
                "--target-a", str(root / "data/aa.txt"),
                "--lang-b", "bb", "--pivot-b", str(root / "data/bb.pivot.txt"),
                "--target-b", str(root / "data/bb.txt"),
                "--out", str(out_dir), "--seed", "3",
            ]
        )
        assert rc == 0
        line = capsys.readouterr().out
        assert line.startswith("aa-bb: 82 matched pairs -> ")
        for name in ("train.tsv", "dev.tsv", "test.tsv", "meta.json"):
            assert (out_dir / name).is_file()

    def test_no_overlap_is_config_error(self, tmp_path, capsys):
        (tmp_path / "p1").write_text("one\n")
        (tmp_path / "t1").write_text("uno\n")
        (tmp_path / "p2").write_text("two\n")
        (tmp_path / "t2").write_text("dos\n")
        rc = cli.main(
            [
                "build-corpus",
                "--lang-a", "aa", "--pivot-a", str(tmp_path / "p1"),
                "--target-a", str(tmp_path / "t1"),
                "--lang-b", "bb", "--pivot-b", str(tmp_path / "p2"),
                "--target-b", str(tmp_path / "t2"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    def test_empty_test_split_is_config_error(self, tmp_path, capsys):
        # 12 shared sentences at test_ratio 0.05 give floor(0.6) = 0 test rows.
        for name, lang in (("p", "en"), ("a", "aa"), ("b", "bb")):
            (tmp_path / name).write_text("".join(f"{lang} {i}\n" for i in range(12)))
        out_dir = tmp_path / "pairout"
        rc = cli.main(
            [
                "build-corpus",
                "--lang-a", "aa", "--pivot-a", str(tmp_path / "p"), "--target-a", str(tmp_path / "a"),
                "--lang-b", "bb", "--pivot-b", str(tmp_path / "p"), "--target-b", str(tmp_path / "b"),
                "--out", str(out_dir), "--test-ratio", "0.05",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: pair aa-bb: splitting its 12 sentence pairs at test_ratio 0.05 "
            "leaves the test split empty\n"
        )
        assert not out_dir.exists()


class TestSubsample:
    def test_prints_manifest_json(self, capsys):
        rc = cli.main(
            ["subsample", "--n-train", "10", "--fraction", "0.5", "--seed", "4"]
        )
        assert rc == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["n_train"] == 10
        assert raw["fraction"] == 0.5
        assert len(raw["indices"]) == 5

    def test_writes_manifest_file(self, tmp_path, capsys):
        out = tmp_path / "subset.json"
        rc = cli.main(
            [
                "subsample", "--n-train", "20", "--fraction", "0.3",
                "--seed", "42", "--src", "aa", "--tgt", "bb",
                "--out", str(out),
            ]
        )
        assert rc == 0
        manifest = sampling.SubsetManifest.read(out)
        assert manifest.indices == sampling.subsample(20, [0.3], 42)[0].indices
        assert manifest.src == "aa"
        assert out.read_text(encoding="utf-8") == manifest.to_json() + "\n"

    def test_bad_fraction_is_config_error(self, capsys):
        rc = cli.main(
            ["subsample", "--n-train", "10", "--fraction", "1.5", "--seed", "1"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


# A valid subset manifest of a 2-row training TSV.
SUBSET = {"fraction": 1.0, "seed": 9, "n_train": 2, "indices": [0, 1]}


class TestTrainAndScore:
    def test_train_decodes_test_set(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("a b\tx y\na\tx\nb c\ty z\n")
        test_src = tmp_path / "test.src"
        test_src.write_text("a b c\nzz\n")
        hyp = tmp_path / "hyp.txt"
        rc = cli.main(
            [
                "train", "--train", str(train), "--test-src", str(test_src),
                "--hyp-out", str(hyp), "--iterations", "10",
            ]
        )
        assert rc == 0
        assert "trained on 3 pairs (10 EM iterations)" in capsys.readouterr().out
        lines = hyp.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "x y z"
        assert lines[1] == "zz"  # unknown token passes through

    def test_an_interrupted_train_keeps_the_old_hypotheses(self, tmp_path, monkeypatch):
        train = tmp_path / "train.tsv"
        train.write_text("a b\tx y\na\tx\n")
        test_src = tmp_path / "test.src"
        test_src.write_text("a b\n")
        hyp = tmp_path / "hyps" / "hyp.txt"
        hyp.parent.mkdir()
        hyp.write_bytes(b"old\n")

        def interrupted_replace(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted_replace)
        with pytest.raises(KeyboardInterrupt):
            cli.main(
                ["train", "--train", str(train), "--test-src", str(test_src), "--hyp-out", str(hyp)]
            )
        assert hyp.read_bytes() == b"old\n"
        assert os.listdir(hyp.parent) == ["hyp.txt"]

    def test_train_with_subset(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("a\tx\nb\ty\nc\tz\nd\tw\n")
        subset = tmp_path / "subset.json"
        cli.main(
            [
                "subsample", "--n-train", "4", "--fraction", "0.5",
                "--seed", "9", "--out", str(subset),
            ]
        )
        test_src = tmp_path / "t.src"
        test_src.write_text("a\n")
        hyp = tmp_path / "h.txt"
        rc = cli.main(
            [
                "train", "--train", str(train), "--test-src", str(test_src),
                "--hyp-out", str(hyp), "--subset", str(subset),
            ]
        )
        assert rc == 0
        assert "trained on 2 pairs" in capsys.readouterr().out

    def test_subset_size_mismatch_is_config_error(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("a\tx\nb\ty\n")
        subset = tmp_path / "subset.json"
        cli.main(
            [
                "subsample", "--n-train", "9", "--fraction", "0.5",
                "--seed", "9", "--out", str(subset),
            ]
        )
        capsys.readouterr()
        rc = cli.main(
            [
                "train", "--train", str(train), "--test-src", str(train),
                "--hyp-out", str(tmp_path / "h"), "--subset", str(subset),
            ]
        )
        assert rc == 2
        assert "subset was made for 9 pairs" in capsys.readouterr().err

    def test_unsorted_subset_is_config_error(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("a\tx\nb\ty\n")
        subset = tmp_path / "subset.json"
        subset.write_text(
            json.dumps({"fraction": 1.0, "seed": 9, "n_train": 2, "indices": [1, 0]})
        )
        rc = cli.main(
            [
                "train", "--train", str(train), "--test-src", str(train),
                "--hyp-out", str(tmp_path / "h"), "--subset", str(subset),
            ]
        )
        assert rc == 2
        assert "strictly increase" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, problem",
        [
            ({"indices": [0]}, "lacks fraction, seed, n_train"),
            ([0, 1], "must be a JSON object, not a list"),
            ("0.5", "must be a JSON object, not a str"),
            # numpy would take each of these three for rows 0 and 1.
            (dict(SUBSET, indices=[0, 1.7]), "indices must be integers, not 1.7"),
            (dict(SUBSET, indices="01"), "indices must be an array, not '01'"),
            (dict(SUBSET, indices=[0, True]), "indices must be integers, not True"),
            (dict(SUBSET, n_train=2.0), "n_train must be an integer, not 2.0"),
            (dict(SUBSET, n_train="2"), "n_train must be an integer, not '2'"),
        ],
    )
    def test_malformed_subset_is_config_error(self, tmp_path, capsys, content, problem):
        train = tmp_path / "train.tsv"
        train.write_text("a\tx\nb\ty\n")
        subset = tmp_path / "subset.json"
        subset.write_text(json.dumps(content))
        rc = cli.main(
            [
                "train", "--train", str(train), "--test-src", str(train),
                "--hyp-out", str(tmp_path / "h"), "--subset", str(subset),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err

    @pytest.mark.parametrize(
        "text, problem",
        [
            (
                "{bad",
                ": Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
            ),
            ("[1,2]", ": a subset manifest must be a JSON object, not a list"),
        ],
        ids=["not-json", "not-an-object"],
    )
    def test_a_bad_subset_error_names_its_file(self, tmp_path, capsys, text, problem):
        train = tmp_path / "train.tsv"
        train.write_text("a\tx\nb\ty\n")
        subset = tmp_path / "s.json"
        subset.write_text(text)
        rc = cli.main(
            [
                "train", "--train", str(train), "--test-src", str(train),
                "--hyp-out", str(tmp_path / "h"), "--subset", str(subset),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.endswith(f"{subset}{problem}\n")

    @pytest.mark.parametrize("bad", ["train", "test-src", "subset"])
    def test_train_names_the_file_that_is_not_utf8(self, tmp_path, capsys, bad):
        files = {
            "train": (tmp_path / "train.tsv", b"a\tx\nb\ty\n"),
            "test-src": (tmp_path / "test.src", b"a\nb\n"),
            "subset": (tmp_path / "subset.json", json.dumps(SUBSET).encode()),
        }
        args = ["train", "--hyp-out", str(tmp_path / "h.txt")]
        for flag, (path, data) in files.items():
            path.write_bytes(data + b"\xff" if flag == bad else data)
            args += [f"--{flag}", str(path)]
        assert cli.main(args) == 2
        path, data = files[bad]
        assert capsys.readouterr().err == (
            f"error: {path} is not UTF-8: invalid start byte at byte offset {len(data)}\n"
        )

    def test_score_identity_and_json(self, tmp_path, capsys):
        text = "a b c d\ne f g h\n"
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text(text)
        ref.write_text(text)
        assert cli.main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        assert capsys.readouterr().out.strip() == "BLEU = 100.00"
        assert cli.main(["score", "--hyp", str(hyp), "--ref", str(ref), "--json"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["score"] == 100.0
        assert raw["brevity_penalty"] == 1.0

    def test_score_missing_file_is_config_error(self, tmp_path, capsys):
        rc = cli.main(
            ["score", "--hyp", str(tmp_path / "no"), "--ref", str(tmp_path / "no")]
        )
        assert rc == 2


class TestCurveAucCorrelate:
    SCORES = (
        "pair,fraction,bleu\n"
        "es-pt,0.5,24.0\n"
        "es-pt,1.0,30.0\n"
        "pt-es,0.5,30.0\n"
        "pt-es,1.0,30.0\n"
    )

    def test_curve_stdout(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(self.SCORES)
        assert cli.main(["curve", "--scores", str(scores)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("pair,fraction,bleu,relative\n")
        assert "es-pt,0.5,24.0,0.8\n" in out

    def test_curve_to_file_then_auc(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(self.SCORES)
        curves = tmp_path / "curves.csv"
        assert cli.main(["curve", "--scores", str(scores), "--out", str(curves)]) == 0
        capsys.readouterr()
        assert cli.main(["auc", "--curve", str(curves)]) == 0
        out = capsys.readouterr().out
        # pt-es is flat at 30 -> rectangle of height 1 over [50, 100]
        assert "pt-es\t50.0" in out
        assert "es-pt\t45.0" in out  # trapezoid: 50 * (0.8 + 1.0) / 2

    def test_correlate_against_reference_tables(self, capsys):
        rc = cli.main(["correlate", "--auc", "table3", "--against", "written"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "r = 0.796  (AUC vs written, n = 20)"

    def test_correlate_spoken_excluding_source(self, capsys):
        rc = cli.main(
            [
                "correlate", "--auc", "table3", "--against", "spoken",
                "--exclude-source", "ro",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == "r = 0.775  (AUC vs spoken, excluding source ro, n = 16)"

    @pytest.mark.parametrize("labelled", [True, False])
    def test_correlate_curves_csv(self, tmp_path, capsys, labelled):
        # Each pair's relative BLEU at half the data is its written score
        # over 100, so its AUC is linear in that score and r is 1. Rows
        # without a label form one unlabelled curve.
        written, _ = analysis.embedded_matrices()
        rows = ["pair,fraction,bleu,relative"]
        for (src, tgt), score in sorted(written.scores.items())[: 20 if labelled else 1]:
            pair = f"{src}-{tgt}" if labelled else ""
            rows += [f"{pair},0.5,{score * 0.3!r},0", f"{pair},1.0,30.0,1.0"]
        curves = tmp_path / "curves.csv"
        curves.write_text("\n".join(rows) + "\n")
        rc = cli.main(["correlate", "--auc", str(curves), "--against", "written"])
        captured = capsys.readouterr()
        if labelled:
            assert rc == 0
            assert captured.out == "r = 1.000  (AUC vs written, n = 20)\n"
        else:
            assert rc == 2
            assert captured.err == f"error: curves in {curves} need pair labels for correlation\n"

    def test_correlate_refuses_a_non_finite_point(self, tmp_path, capsys):
        # Unchecked, the NaN AUC of es-fr made r NaN, which the clamp to
        # [-1, 1] turned into 1.000.
        written, _ = analysis.embedded_matrices()
        rows = ["pair,fraction,bleu,relative"]
        for (src, tgt), score in sorted(written.scores.items()):
            rows += [f"{src}-{tgt},0.5,{score * 0.3!r},0", f"{src}-{tgt},1.0,30.0,1.0"]
        rows[1] = "es-fr,0.5,nan,0"
        curves = tmp_path / "curves.csv"
        curves.write_text("\n".join(rows) + "\n")
        rc = cli.main(["correlate", "--auc", str(curves), "--against", "written"])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: line 2: fraction and BLEU must be finite: 'es-fr,0.5,nan,0'\n"
        )

    @pytest.mark.parametrize("source", ["RO", "aa"])
    def test_correlate_refuses_an_exclusion_it_cannot_make(self, capsys, source):
        rc = cli.main(
            [
                "correlate", "--auc", "table3", "--against", "spoken",
                "--exclude-source", source,
            ]
        )
        assert rc == 2
        assert capsys.readouterr() == (
            "",
            f"error: --exclude-source {source!r} is no pair's source; "
            "the sources are es, fr, it, pt, ro\n",
        )

    def test_csv_inputs_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        # As a spreadsheet saves "CSV UTF-8".
        bom = b"\xef\xbb\xbf"
        scores = tmp_path / "scores.csv"
        scores.write_bytes(bom + self.SCORES.encode("utf-8"))
        curves = tmp_path / "curves.csv"
        assert cli.main(["curve", "--scores", str(scores), "--out", str(curves)]) == 0
        curves.write_bytes(bom + curves.read_bytes())
        assert cli.main(["auc", "--curve", str(curves)]) == 0
        assert capsys.readouterr().out == "es-pt\t45.0\npt-es\t50.0\n"

        written, _ = analysis.embedded_matrices()
        rows = [
            row
            for (src, tgt), score in sorted(written.scores.items())
            for row in (f"{src}-{tgt},0.5,{score * 0.3!r},0", f"{src}-{tgt},1.0,30.0,1.0")
        ]
        curves.write_bytes(bom + "\n".join(["pair,fraction,bleu,relative", *rows, ""]).encode())
        assert cli.main(["correlate", "--auc", str(curves), "--against", "written"]) == 0
        assert capsys.readouterr().out == "r = 1.000  (AUC vs written, n = 20)\n"

    def test_bad_scores_header_is_config_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("wrong,header\n")
        assert cli.main(["curve", "--scores", str(scores)]) == 2


class TestRunAndReport:
    def test_run_then_report(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        rc = cli.main(["run", "--manifest", str(manifest_path)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "18/18 cells done" in captured.out
        assert "report written to" in captured.out
        assert "(2 pairs)" in captured.out
        out_dir = root / "out"
        for name in ("scores.csv", "curves.csv", "auc.csv", "summary.json", "ledger.json"):
            assert (out_dir / name).is_file()

        rc = cli.main(["report", "--manifest", str(manifest_path)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        # synthetic languages never match the Romance tables
        assert "pearson_written = undefined" in captured.out

    def test_a_curve_that_cannot_be_built_refuses_the_report(self, tiny_bitexts, capsys):
        # Every hypothesis is "qqq", so every cell scores BLEU 0 and no pair
        # has a relative curve.
        root, manifest_path = tiny_bitexts
        raw = json.loads(manifest_path.read_text())
        raw["trainer"] = {
            "kind": "external",
            "command_template": "awk '{{print \"qqq\"}}' {test_src} > {hyp_out} # {train}",
        }
        manifest_path.write_text(json.dumps(raw))
        problem = "error: pair aa-bb: BLEU at fraction 1.0 is 0; relative curve undefined\n"
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 1
        assert capsys.readouterr() == ("", problem)
        assert cli.main(["report", "--manifest", str(manifest_path)]) == 1
        assert capsys.readouterr() == ("", problem)
        assert not (root / "out" / "curves.csv").exists()
        # The same scores given to `curve` are a bad input file.
        assert cli.main(["curve", "--scores", str(root / "out" / "scores.csv")]) == 2
        assert capsys.readouterr() == ("", problem)

    def test_curve_and_auc_reproduce_the_report(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 0
        out = root / "out"
        curves = root / "curves.csv"
        rc = cli.main(["curve", "--scores", str(out / "scores.csv"), "--out", str(curves)])
        assert rc == 0
        assert curves.read_bytes() == (out / "curves.csv").read_bytes()
        capsys.readouterr()

        assert cli.main(["auc", "--curve", str(out / "curves.csv")]) == 0
        printed = capsys.readouterr().out.splitlines()
        rows = (out / "auc.csv").read_text().splitlines()
        assert rows[0] == "pair,auc"
        assert [line.replace("\t", ",") for line in printed] == rows[1:]
        assert len(printed) == 2

    def test_train_reproduces_a_cell_of_a_run(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 0
        out = root / "out"
        pair_dir = out / "corpus" / "aa-bb"
        test_src = root / "test.src.txt"
        test_src.write_text(
            "".join(s + "\n" for s, _ in corpus.read_pairs_tsv(pair_dir / "test.tsv"))
        )
        hyp = root / "hyp.txt"
        rc = cli.main(
            [
                "train", "--train", str(pair_dir / "train.tsv"),
                "--subset", str(out / "subsets" / "aa-bb" / "0.5.json"),
                "--test-src", str(test_src), "--hyp-out", str(hyp), "--iterations", "2",
            ]
        )
        assert rc == 0, capsys.readouterr().err
        assert hyp.read_bytes() == (out / "hyps" / "aa-bb" / "0.5.txt").read_bytes()

    def test_run_exit_1_when_cells_fail(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        raw = json.loads(manifest_path.read_text())
        raw["trainer"] = {
            "kind": "external",
            "command_template": "false # {train} {test_src} {hyp_out}",
        }
        manifest_path.write_text(json.dumps(raw))
        rc = cli.main(["run", "--manifest", str(manifest_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "0/18 cells done" in captured.out
        assert "FAILED aa-bb @ 0.2" in captured.err
        assert cli.main(["report", "--manifest", str(manifest_path)]) == 1
        assert "ledger has 18 unfinished cells: aa-bb/0.2, " in capsys.readouterr().err
        assert not (root / "out" / "summary.json").exists()

    def test_report_from_reference_tables_without_manifest(self, tmp_path, capsys):
        out = tmp_path / "ref_report"
        rc = cli.main(["report", "--auc", "table3", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "pearson_written = 0.796" in captured.out
        assert "pearson_spoken = 0.492" in captured.out
        assert "pearson_spoken_excl_ro = 0.775" in captured.out
        assert (out / "summary.json").is_file()
        assert (out / "plots" / "scatter_written.svg").is_file()

    def test_report_without_manifest_or_out_is_config_error(self, capsys):
        assert cli.main(["report", "--auc", "table3"]) == 2
        assert "report --auc table3 needs --out" in capsys.readouterr().err
        assert cli.main(["report", "--auc", "ledger", "--out", "anywhere"]) == 2
        assert "report --auc ledger needs --manifest" in capsys.readouterr().err

    def test_table3_report_never_goes_into_a_run_bundle(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 0
        out = root / "out"

        def files():
            return {
                p: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in sorted(out.rglob("*")) if p.is_file()
            }

        before = files()
        capsys.readouterr()
        assert cli.main(["report", "--manifest", str(manifest_path), "--auc", "table3"]) == 2
        assert capsys.readouterr().err == "error: report --auc table3 needs --out\n"
        assert files() == before

    def test_run_has_no_seed_flag(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        assert cli.main(["run", "--manifest", str(manifest_path), "--seed", "8"]) == 2
        assert "unrecognized arguments: --seed 8" in capsys.readouterr().err
        assert not (root / "out").exists()

    def test_jobs_changes_neither_bundle_nor_fingerprint(self, tiny_bitexts, capsys):
        # The manifest sets max_parallel_jobs to 2.
        root, manifest_path = tiny_bitexts
        out = root / "out"

        def run(*flags):
            assert cli.main(["run", "--manifest", str(manifest_path), *flags]) == 0
            files = {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            ledger = json.loads(files.pop("ledger.json"))
            shutil.rmtree(out)
            return files, ledger["fingerprint"]

        assert run("--jobs", "1") == run()

    @pytest.mark.parametrize(
        "edit",
        [{"bleu": None}, {"status": "running"}, {"bleu": float("nan")}],
        ids=["null-bleu", "unknown-status", "nan-bleu"],
    )
    def test_a_ledger_record_no_run_writes(self, tiny_bitexts, capsys, edit):
        # report refuses the ledger; run replaces it and trains every cell.
        root, manifest_path = tiny_bitexts
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 0
        ledger_path = root / "out" / "ledger.json"
        raw = json.loads(ledger_path.read_text())
        raw["cells"]["aa-bb/0.5"].update(edit)
        ledger_path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert cli.main(["report", "--manifest", str(manifest_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: malformed ledger {ledger_path}: ")
        (root / "out" / "hyps" / "aa-bb" / "0.2.txt").unlink()
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 0
        assert "18/18 cells done" in capsys.readouterr().out
        assert (root / "out" / "hyps" / "aa-bb" / "0.2.txt").is_file()
        assert json.loads(ledger_path.read_text())["cells"]["aa-bb/0.5"]["status"] == "done"

    @pytest.mark.parametrize(
        "flag", [["--exclude-source", "ro"], ["--seed", "3"], ["--jobs", "2"]]
    )
    def test_report_has_no_exclude_seed_or_jobs_flag(self, tmp_path, capsys, flag):
        out = tmp_path / "ref_report"
        assert cli.main(["report", "--auc", "table3", "--out", str(out), *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_report_ledger_mode_requires_existing_ledger(self, tiny_bitexts, capsys):
        _, manifest_path = tiny_bitexts
        rc = cli.main(["report", "--manifest", str(manifest_path)])
        assert rc == 1
        assert "no ledger" in capsys.readouterr().err

    def test_report_of_a_malformed_ledger_exits_1(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        (root / "out").mkdir()
        (root / "out" / "ledger.json").write_text('{"fingerprint": "x", "cells": []}')
        rc = cli.main(["report", "--manifest", str(manifest_path)])
        assert rc == 1
        assert "malformed ledger" in capsys.readouterr().err

    def test_report_refuses_a_ledger_of_other_inputs(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        out = root / "out"

        def files(directory):
            return {p: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}

        assert cli.main(["run", "--manifest", str(manifest_path)]) == 0
        bundle = files(out)
        assert cli.main(["report", "--manifest", str(manifest_path)]) == 0
        assert files(out) == bundle
        table3 = ["report", "--manifest", str(manifest_path), "--auc", "table3", "--out"]
        assert cli.main([*table3, str(root / "table3_before")]) == 0
        capsys.readouterr()

        aa = root / "data" / "aa.txt"
        lines = aa.read_text().splitlines()
        lines[0] += " aat99"
        aa.write_text("\n".join(lines) + "\n")
        assert cli.main(["report", "--manifest", str(manifest_path)]) == 1
        assert "does not match the inputs" in capsys.readouterr().err
        assert files(out) == bundle

        assert cli.main([*table3, str(root / "table3_after")]) == 0
        before = files(root / "table3_before")
        after = files(root / "table3_after")
        assert [p.name for p in after] == [p.name for p in before]
        assert list(after.values()) == list(before.values())

    def test_run_over_a_malformed_ledger_replaces_it(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        (root / "out").mkdir()
        (root / "out" / "ledger.json").write_text('{"fingerprint": "x", "cells": []}')
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 0
        assert "18/18 cells done" in capsys.readouterr().out
        assert cli.main(["report", "--manifest", str(manifest_path)]) == 0

    def test_run_exit_2_when_a_pair_cannot_be_prepared(self, tiny_bitexts, capsys):
        # A worker prepares the pair at its first cell; the ValueError of a
        # join with no shared pivot sentence is still a configuration error.
        root, manifest_path = tiny_bitexts
        pivot = root / "data" / "bb.pivot.txt"
        pivot.write_text("".join(f"other {line}\n" for line in pivot.read_text().splitlines()))
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 2
        assert "no pivot sentences shared between aa and bb" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "trainer_cfg",
        [
            {"kind": "builtin-em", "em_iterations": 1},
            {"kind": "external", "command_template": "cp {test_src} {hyp_out} # {train}"},
        ],
        ids=["builtin", "external"],
    )
    def test_run_refuses_an_empty_test_split(self, tmp_path, capsys, monkeypatch, trainer_cfg):
        # 25 shared sentences at test_ratio 0.03 give floor(0.75) = 0 test
        # rows, which no cell could be scored on.
        info = synthetic.write_family(tmp_path, n_sentences=25, vocab_size=40)
        manifest_path = Path(info["manifest_path"])
        raw = json.loads(manifest_path.read_text())
        raw["split"] = {"dev_ratio": 0.03, "test_ratio": 0.03}
        raw["trainer"] = trainer_cfg
        manifest_path.write_text(json.dumps(raw))
        started = []
        for name in ("_run_cell", "_launch_cell"):
            real = getattr(pipeline, name)
            monkeypatch.setattr(
                pipeline, name, lambda *a, real=real: started.append(a) or real(*a)
            )

        assert cli.main(["run", "--manifest", str(manifest_path)]) == 2
        assert (
            "pair aa-bb: splitting its 25 sentence pairs at test_ratio 0.03 "
            "leaves the test split empty"
        ) in capsys.readouterr().err
        assert started == []
        assert not (tmp_path / "out" / "ledger.json").exists()
        assert (tmp_path / "out" / "ledger.journal").read_bytes() == b""
        assert not (tmp_path / "out" / "corpus" / "aa-bb").exists()

    def test_literal_braces_in_a_command_template_are_doubled(self, tiny_bitexts, capsys):
        # A single-brace awk program would be taken for a placeholder and
        # fail every cell with a KeyError; it is refused when the manifest loads.
        root, manifest_path = tiny_bitexts
        raw = json.loads(manifest_path.read_text())
        template = "awk '{braces}' {{test_src}} > {{hyp_out}} # {{train}}"
        raw["trainer"] = {"kind": "external", "command_template": template.format(braces="{print $0}")}
        manifest_path.write_text(json.dumps(raw))
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 2
        err = capsys.readouterr().err
        assert "bad trainer spec" in err and "placeholder {print $0}" in err
        assert not (root / "out").exists()

        raw["trainer"]["command_template"] = template.format(braces="{{print $0}}")
        manifest_path.write_text(json.dumps(raw))
        ledger = pipeline.run_experiment(pipeline.load_manifest(manifest_path))
        assert [c.status for c in ledger.cells.values()] == ["done"] * 18
        hyp = (root / "out" / "hyps" / "aa-bb" / "1.0.txt").read_text()
        assert hyp == (root / "out" / "corpus" / "aa-bb" / "test.src.txt").read_text()

    def test_run_names_the_input_file_that_is_not_utf8(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        target = (root / "data" / "bb.txt").resolve()
        data = target.read_bytes()
        target.write_bytes(data[:20] + b"\xff" + data[21:])
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {target} is not UTF-8: invalid start byte at byte offset 20\n"
        )

    def test_a_hypothesis_file_that_is_not_utf8_fails_its_cell_by_name(self, tiny_bitexts, capsys):
        root, manifest_path = tiny_bitexts
        raw = json.loads(manifest_path.read_text())
        raw["trainer"] = {
            "kind": "external",
            "command_template": r"printf 'ok\377\n' > {hyp_out} # {train} {test_src}",
        }
        manifest_path.write_text(json.dumps(raw))
        assert cli.main(["run", "--manifest", str(manifest_path)]) == 1
        hyp = (root / "out" / "hyps" / "aa-bb" / "0.2.txt").resolve()
        assert (
            f"FAILED aa-bb @ 0.2: {hyp} is not UTF-8: invalid start byte at byte offset 2\n"
        ) in capsys.readouterr().err

    def test_missing_manifest_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--manifest", str(tmp_path / "ghost.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def run_with_closed_stdout(args, cwd):
    """Run `mtlearn <args>` in a subprocess whose stdout is a pipe that
    nobody reads: its read end is closed before the command starts."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from mtlearn import cli; "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    # Without PYTHONUNBUFFERED, stdout buffers short output until a flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-c", code, *args], env=env,
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=cwd, timeout=120,
        )
    finally:
        os.close(write_end)


class TestClosedStdout:
    # A reader that stops early, as `mtlearn auc ... | head -1` does, is no
    # configuration error: the command exits 128 + SIGPIPE and says nothing.
    def test_tables_exits_141(self, tmp_path):
        done = run_with_closed_stdout(["tables"], tmp_path)
        assert (done.returncode, done.stderr) == (141, "")

    def test_run_writes_its_report_and_exits_141(self, tiny_bitexts):
        root, manifest_path = tiny_bitexts
        done = run_with_closed_stdout(["run", "--manifest", str(manifest_path)], root)
        assert (done.returncode, done.stderr) == (141, "")
        for name in ("scores.csv", "curves.csv", "auc.csv", "summary.json", "ledger.json"):
            assert (root / "out" / name).is_file()


class TestArgparseBehavior:
    def test_usage_error_exit_2(self, capsys):
        assert cli.main(["subsample"]) == 2  # missing required args
        assert cli.main(["definitely-not-a-command"]) == 2
        capsys.readouterr()

    def test_help_exit_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "mtlearn" in capsys.readouterr().out
        assert cli.main(["run", "--help"]) == 0
        capsys.readouterr()
