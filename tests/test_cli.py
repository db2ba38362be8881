"""End-to-end tests of every CLI subcommand through cli.main()."""

import json
import random

import pytest

from mtlearn import cli, corpus, sampling


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
        assert manifest.indices == sampling.subsample(20, 0.3, 42).indices
        assert manifest.src == "aa"
        assert out.read_text(encoding="utf-8") == manifest.to_json() + "\n"

    def test_bad_fraction_is_config_error(self, capsys):
        rc = cli.main(
            ["subsample", "--n-train", "10", "--fraction", "1.5", "--seed", "1"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


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
        assert "needs --manifest or --out" in capsys.readouterr().err

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

    def test_missing_manifest_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--manifest", str(tmp_path / "ghost.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


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
