"""Tests for pivot-aligned corpus construction and splitting."""

import itertools
import json
import os
import re
import unicodedata

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mtlearn import corpus


def bitext(lang, pivots, targets):
    return corpus.PivotBitext(lang=lang, pivot_lines=list(pivots), target_lines=list(targets))


class TestLoadPivotBitext:
    def test_reads_aligned_files(self, tmp_path):
        pivot = tmp_path / "en.txt"
        target = tmp_path / "es.txt"
        pivot.write_text("One\nTwo\nThree\n", encoding="utf-8")
        target.write_text("Uno\nDos\nTres\n", encoding="utf-8")
        bt = corpus.load_pivot_bitext(pivot, target, "es")
        assert len(bt) == 3
        assert bt.pivot_lines[1] == "Two"
        assert bt.target_lines[2] == "Tres"

    def test_line_count_mismatch(self, tmp_path):
        pivot = tmp_path / "en.txt"
        target = tmp_path / "es.txt"
        pivot.write_text("a\nb\nc\n", encoding="utf-8")
        target.write_text("a\nb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="mismatch"):
            corpus.load_pivot_bitext(pivot, target, "es")

    def test_empty_files_are_valid(self, tmp_path):
        pivot = tmp_path / "en.txt"
        target = tmp_path / "es.txt"
        pivot.write_text("", encoding="utf-8")
        target.write_text("", encoding="utf-8")
        assert len(corpus.load_pivot_bitext(pivot, target, "es")) == 0

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            corpus.load_pivot_bitext(tmp_path / "no.txt", tmp_path / "no2.txt", "es")

    def test_invalid_utf8(self, tmp_path):
        pivot = tmp_path / "en.txt"
        target = tmp_path / "es.txt"
        pivot.write_bytes(b"\xff\xfe bad bytes\n")
        target.write_text("x\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(pivot))} is not UTF-8: .* offset 0$"):
            corpus.load_pivot_bitext(pivot, target, "es")

    def test_bad_lang_code(self, tmp_path):
        pivot = tmp_path / "en.txt"
        pivot.write_text("a\n", encoding="utf-8")
        for bad in ("ES", "esp", "e", "e1"):
            with pytest.raises(ValueError):
                corpus.load_pivot_bitext(pivot, pivot, bad)


class TestNormalizePivot:
    def test_whitespace_collapse(self):
        assert corpus.normalize_pivot("  Hello   world ") == "Hello world"

    def test_identity_on_normal_form(self):
        assert corpus.normalize_pivot("Hello world") == "Hello world"

    def test_nfd_becomes_nfc(self):
        nfd = unicodedata.normalize("NFD", "Café")
        assert nfd != "Café"  # really decomposed
        out = corpus.normalize_pivot(nfd)
        assert out == "Café"
        assert out == unicodedata.normalize("NFC", out)

    def test_case_preserved(self):
        assert corpus.normalize_pivot("MiXeD Case") == "MiXeD Case"

    def test_all_unicode_whitespace_collapses(self):
        # str.split() separates on every Unicode whitespace character,
        # including tabs and thin spaces.
        assert corpus.normalize_pivot("a\t\tb   c") == "a b c"

    def test_idempotent(self):
        for text in ("  x  y ", "Café", "a\tb", ""):
            once = corpus.normalize_pivot(text)
            assert corpus.normalize_pivot(once) == once


# Any line a writer can emit: no "\n", and no trailing "\r" (which would
# read back as the end of a CRLF line ending). The first line does not start
# with U+FEFF, which would read back as a byte-order mark.
_lines = st.lists(
    st.text().filter(lambda line: "\n" not in line and not line.endswith("\r"))
).filter(lambda lines: not lines[:1] or not lines[0].startswith("\ufeff"))


# Any sentence: arbitrary Unicode without "\n", with tabs and "\r" common.
# Inputs are read as UTF-8, so a sentence never holds a lone surrogate.
_sentences = st.text(
    alphabet=st.one_of(
        st.characters(codec="utf-8", exclude_characters="\n"), st.sampled_from("\t\r ")
    )
)


@pytest.fixture(scope="class")
def examples_dir(tmp_path_factory):
    """One directory for every example of a class's properties.

    Each example overwrites its file there: a directory made and removed
    per example would count against Hypothesis's deadline.
    """
    return tmp_path_factory.mktemp("examples")


class TestReadLines:
    @given(_lines)
    def test_roundtrip_over_arbitrary_unicode(self, examples_dir, lines):
        path = examples_dir / "lines.txt"
        path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        assert corpus.read_lines(path) == lines
        # Without the final newline, the last line still reads back.
        path.write_bytes("\n".join(lines).encode("utf-8"))
        assert corpus.read_lines(path) == (lines if lines[-1:] != [""] else lines[:-1])

    def test_crlf_reads_like_lf(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a\r\nb\r\n\r\nc")
        assert corpus.read_lines(path) == ["a", "b", "", "c"]

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfa\n\xef\xbb\xbfb\n")
        assert corpus.read_lines(path) == ["a", "\ufeffb"]  # only the file's first

    def test_byte_order_marks_leave_the_pivot_join_intact(self, tmp_path):
        # A kept mark would make a pivot file's first key match no other
        # language, and would stay in a target file's first sentence.
        (tmp_path / "en-es.txt").write_bytes(b"\xef\xbb\xbfthe house is red\nthe cat\n")
        (tmp_path / "es.txt").write_bytes(b"\xef\xbb\xbfla casa es roja\nel gato\n")
        (tmp_path / "en-pt.txt").write_text("the house is red\nthe cat\n", encoding="utf-8")
        (tmp_path / "pt.txt").write_text("a casa e vermelha\no gato\n", encoding="utf-8")
        es = corpus.load_pivot_bitext(tmp_path / "en-es.txt", tmp_path / "es.txt", "es")
        pt = corpus.load_pivot_bitext(tmp_path / "en-pt.txt", tmp_path / "pt.txt", "pt")
        assert corpus.build_parallel(es, pt).pairs == [
            ("la casa es roja", "a casa e vermelha"), ("el gato", "o gato"),
        ]

    @pytest.mark.parametrize(
        "data, problem",
        [
            (b"\xef\xbb\xbfab\n\xffc\n", "invalid start byte at byte offset 6"),
            (b"ab\n\xc3(\n", "invalid continuation byte at byte offset 3"),
            (b"ab\n\xe2\x82", "unexpected end of data at byte offset 3"),
        ],
        ids=["after-a-byte-order-mark", "bad-continuation", "cut-short"],
    )
    def test_a_file_that_is_not_utf8_is_named_with_its_bad_byte(self, tmp_path, data, problem):
        # The offset counts the file's bytes, a byte-order mark included.
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError) as raised:
            corpus.read_lines(path)
        assert str(raised.value) == f"{path} is not UTF-8: {problem}"

    def test_lone_cr_stays_inside_its_line(self, tmp_path):
        path = tmp_path / "cr.txt"
        path.write_bytes(b"a\rb\nc\n")
        assert corpus.read_lines(path) == ["a\rb", "c"]

    def test_line_separator_inside_a_sentence_is_kept(self, tmp_path):
        pivot = tmp_path / "en.txt"
        target = tmp_path / "es.txt"
        pivot.write_text("one\ntwo\n", encoding="utf-8")
        target.write_text("uno\u2028bis\ndos\n", encoding="utf-8")
        bt = corpus.load_pivot_bitext(pivot, target, "es")
        assert bt.target_lines == ["uno\u2028bis", "dos"]

    def test_file_separator_does_not_resegment(self, tmp_path):
        pivot = tmp_path / "en.txt"
        target = tmp_path / "es.txt"
        pivot.write_text("a\nb\x1cc\n", encoding="utf-8")
        target.write_text("x\x1cy\nz\n", encoding="utf-8")
        bt = corpus.load_pivot_bitext(pivot, target, "es")
        assert bt.pivot_lines == ["a", "b\x1cc"]
        assert bt.target_lines == ["x\x1cy", "z"]

    def test_tsv_keeps_unicode_separators(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\u2028b\tx\x0cy\nc\x85\tz\n", encoding="utf-8")
        assert corpus.read_pairs_tsv(path) == [("a\u2028b", "x\x0cy"), ("c\x85", "z")]


class TestBuildParallel:
    def test_tabs_become_spaces_like_the_tsv_writer(self, tmp_path):
        a = bitext("es", ["X", "Y"], ["has\ttab", "plain"])
        b = bitext("pt", ["X", "Y"], ["tab\there", "clean"])
        pair = corpus.build_parallel(a, b)
        assert pair.pairs == [("has tab", "tab here"), ("plain", "clean")]
        # Tab-free sentences are shared with the bitext, not copied.
        assert pair.pairs[1][0] is a.target_lines[1]
        path = tmp_path / "pairs.tsv"
        corpus.write_text_atomic(path, "".join(corpus.tsv_lines(pair.pairs)))
        assert corpus.read_pairs_tsv(path) == pair.pairs

    def test_single_intersection(self):
        a = bitext("es", ["X", "Y"], ["equis", "ygriega"])
        b = bitext("pt", ["Y", "Z"], ["ipsilon", "ze"])
        pair = corpus.build_parallel(a, b)
        assert pair.pairs == [("ygriega", "ipsilon")]
        assert pair.src == "es" and pair.tgt == "pt"

    def test_duplicate_pivot_capped_at_min_count(self):
        a = bitext("es", ["X", "X", "Q"], ["x1", "x2", "q"])
        b = bitext("pt", ["X"], ["px"])
        pair = corpus.build_parallel(a, b)
        assert pair.pairs == [("x1", "px")]

    def test_occurrence_order_pairing_exhaustive(self):
        # Brute-force oracle: when "X" occurs twice on both sides, the
        # i-th occurrence in a must pair with the i-th occurrence in b.
        a = bitext("es", ["X", "M", "X"], ["xa1", "m", "xa2"])
        b = bitext("pt", ["N", "X", "X"], ["n", "xb1", "xb2"])
        pair = corpus.build_parallel(a, b)
        assert ("xa1", "xb1") in pair.pairs
        assert ("xa2", "xb2") in pair.pairs
        assert ("xa1", "xb2") not in pair.pairs

    def test_full_overlap_in_order(self):
        pivots = [f"sentence {i}" for i in range(6)]
        a = bitext("es", pivots, [f"es{i}" for i in range(6)])
        b = bitext("pt", pivots, [f"pt{i}" for i in range(6)])
        pair = corpus.build_parallel(a, b)
        assert pair.pairs == [(f"es{i}", f"pt{i}") for i in range(6)]

    def test_normalization_applies_to_matching(self):
        a = bitext("es", ["  Hello   world "], ["hola"])
        b = bitext("pt", [unicodedata.normalize("NFD", "Hello world")], ["ola"])
        pair = corpus.build_parallel(a, b)
        assert pair.pairs == [("hola", "ola")]

    def test_empty_normalized_pivots_never_match(self):
        a = bitext("es", ["   ", "real line"], ["blank-es", "es"])
        b = bitext("pt", ["", "real line"], ["blank-pt", "pt"])
        pair = corpus.build_parallel(a, b)
        assert pair.pairs == [("es", "pt")]

    def test_zero_matches_error(self):
        a = bitext("es", ["A"], ["a"])
        b = bitext("pt", ["B"], ["b"])
        with pytest.raises(ValueError, match="no pivot sentences shared"):
            corpus.build_parallel(a, b)

    def test_same_language_error(self):
        a = bitext("es", ["A"], ["a"])
        with pytest.raises(ValueError):
            corpus.build_parallel(a, a)

    @pytest.mark.parametrize(
        "make, problem",
        [
            (lambda: bitext("es", ["A"], []), "pivot/target line counts differ for es: 1 vs 0"),
            (lambda: corpus.ParallelPair("es", "es", []), "source and target language are both 'es'"),
            (
                lambda: corpus.ParallelPair("es", "pt", [("a", "b")], provenance=[(0, 0), (1, 1)]),
                "provenance length does not match pair count",
            ),
            (
                lambda: corpus.build_parallel(bitext("es", [], []), bitext("pt", ["A"], ["a"])),
                "both bitexts must be nonempty",
            ),
        ],
        ids=["line-counts", "same-language", "provenance", "empty-bitext"],
    )
    def test_refusals(self, make, problem):
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value) == problem

    def test_pair_count_symmetry(self):
        # Property over a few constructed corpora with duplicates.
        for seed in range(5):
            pivots_a = [f"s{(i * 7 + seed) % 10}" for i in range(30)]
            pivots_b = [f"s{(i * 3 + seed) % 12}" for i in range(25)]
            a = bitext("es", pivots_a, [f"a{i}" for i in range(30)])
            b = bitext("pt", pivots_b, [f"b{i}" for i in range(25)])
            ab = corpus.build_parallel(a, b)
            ba = corpus.build_parallel(b, a)
            assert len(ab) == len(ba)

    @given(
        st.lists(st.sampled_from(["X", " X", "Y", "Y  ", "Z", "", " "]), min_size=1, max_size=8),
        st.lists(st.sampled_from(["X", "X ", "Y", " Y", "W", "", " "]), min_size=1, max_size=8),
    )
    def test_each_pivot_gives_min_of_its_counts_in_order(self, pivots_a, pivots_b):
        # A pivot occurring k_a times in a and k_b times in b pairs its first
        # min(k_a, k_b) occurrences on each side, i-th with i-th, and the
        # pairs follow a's line order.
        a = bitext("es", pivots_a, [f"a{i}" for i in range(len(pivots_a))])
        b = bitext("pt", pivots_b, [f"b{j}" for j in range(len(pivots_b))])
        lines_a, lines_b = {}, {}
        for lines, pivots in ((lines_a, pivots_a), (lines_b, pivots_b)):
            for i, pivot in enumerate(pivots):
                if pivot.strip():
                    lines.setdefault(pivot.strip(), []).append(i)
        expected = sorted(
            pair
            for key in lines_a.keys() & lines_b.keys()
            for pair in zip(lines_a[key], lines_b[key])
        )
        if not expected:
            with pytest.raises(ValueError, match="no pivot sentences shared"):
                corpus.build_parallel(a, b)
            return
        pair = corpus.build_parallel(a, b)
        assert pair.provenance == expected
        assert pair.pairs == [(f"a{i}", f"b{j}") for i, j in expected]
        for key in lines_a.keys() & lines_b.keys():
            matched = sum(pivots_a[i].strip() == key for i, _ in pair.provenance)
            assert matched == min(len(lines_a[key]), len(lines_b[key]))

    def test_provenance_tracks_matched_occurrences(self):
        a = bitext("es", ["X", "M", "X"], ["xa1", "m", "xa2"])
        b = bitext("pt", ["N", "X", "X"], ["n", "xb1", "xb2"])
        pair = corpus.build_parallel(a, b)
        for (a_idx, b_idx), (src_sent, tgt_sent) in zip(pair.provenance, pair.pairs):
            assert a.target_lines[a_idx] == src_sent
            assert b.target_lines[b_idx] == tgt_sent
            assert corpus.normalize_pivot(a.pivot_lines[a_idx]) == corpus.normalize_pivot(
                b.pivot_lines[b_idx]
            )


def make_pair(n):
    pivots = [f"line {i}" for i in range(n)]
    a = bitext("es", pivots, [f"es{i}" for i in range(n)])
    b = bitext("pt", pivots, [f"pt{i}" for i in range(n)])
    return corpus.build_parallel(a, b)


class TestSplitPair:
    def test_size_arithmetic_10(self):
        spec = corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.1, seed=7)
        train, dev, test = corpus.split_pair(make_pair(10), spec)
        assert (len(train), len(dev), len(test)) == (8, 1, 1)

    def test_floor_and_remainder_100(self):
        spec = corpus.SplitSpec(dev_ratio=0.01, test_ratio=0.01, seed=1)
        train, dev, test = corpus.split_pair(make_pair(100), spec)
        assert (len(train), len(dev), len(test)) == (98, 1, 1)

    def test_deterministic(self):
        spec = corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.2, seed=99)
        first = corpus.split_pair(make_pair(50), spec)
        second = corpus.split_pair(make_pair(50), spec)
        for x, y in zip(first, second):
            assert x.pairs == y.pairs

    def test_partition_is_exhaustive_and_disjoint(self):
        spec = corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.2, seed=5)
        pair = make_pair(73)
        train, dev, test = corpus.split_pair(pair, spec)
        combined = sorted(
            itertools.chain(train.pairs, dev.pairs, test.pairs)
        )
        assert combined == sorted(pair.pairs)
        assert len(set(combined)) == len(pair.pairs)

    def test_order_preserved_within_parts(self):
        spec = corpus.SplitSpec(dev_ratio=0.2, test_ratio=0.2, seed=3)
        pair = make_pair(40)
        position = {p: i for i, p in enumerate(pair.pairs)}
        for part in corpus.split_pair(pair, spec):
            positions = [position[p] for p in part.pairs]
            assert positions == sorted(positions)

    def test_seed_changes_partition(self):
        pair = make_pair(60)
        spec1 = corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.2, seed=1)
        spec2 = corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.2, seed=2)
        assert corpus.split_pair(pair, spec1)[0].pairs != corpus.split_pair(pair, spec2)[0].pairs

    def test_too_few_pairs(self):
        spec = corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.1, seed=0)
        with pytest.raises(ValueError):
            corpus.split_pair(make_pair(9), spec)

    def test_split_spec_validation(self):
        assert corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.2, seed=0).train_ratio == 1.0 - 0.1 - 0.2
        with pytest.raises(ValueError, match="train_ratio"):
            corpus.SplitSpec(dev_ratio=0.5, test_ratio=0.5, seed=0)
        with pytest.raises(ValueError):
            corpus.SplitSpec(dev_ratio=0.0, test_ratio=0.0, seed=0)
        with pytest.raises(ValueError):
            corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.1, seed=-1)


    @given(
        n=st.integers(10, 400),
        dev=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        test=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_split_sizes_and_refusals(self, n, dev, test, seed):
        try:
            spec = corpus.SplitSpec(dev_ratio=dev, test_ratio=test, seed=seed)
        except ValueError:
            assume(False)  # dev + test leave train no share
        pair = make_pair(n)
        n_dev, n_test = int(dev * n), int(test * n)
        n_train = n - n_dev - n_test
        if n_test == 0 or n_train == 0:
            with pytest.raises(ValueError, match="split empty"):
                corpus.split_pair(pair, spec)
            return
        train, dev_part, test_part = corpus.split_pair(pair, spec)
        assert (len(train), len(dev_part), len(test_part)) == (n_train, n_dev, n_test)
        parts = train.pairs + dev_part.pairs + test_part.pairs
        assert sorted(parts) == sorted(pair.pairs)  # disjoint, and every pair kept


class TestTsvIO:
    def test_roundtrip(self, tmp_path):
        pair = make_pair(12)
        path = tmp_path / "pairs.tsv"
        corpus.write_text_atomic(path, "".join(corpus.tsv_lines(pair.pairs)))
        assert corpus.read_pairs_tsv(path) == pair.pairs

    def test_embedded_tabs_become_spaces(self, tmp_path):
        pair = corpus.ParallelPair(
            src="es", tgt="pt", pairs=[("has\ttab", "ok")], provenance=[(0, 0)]
        )
        path = tmp_path / "pairs.tsv"
        corpus.write_text_atomic(path, "".join(corpus.tsv_lines(pair.pairs)))
        assert corpus.read_pairs_tsv(path) == [("has tab", "ok")]

    def test_trailing_cr_becomes_a_space(self, tmp_path):
        # read_lines takes a final "\r" for part of a "\r\n" line end.
        a = bitext("es", ["X", "Y"], ["cr\r", "two\r\r"])
        b = bitext("pt", ["X", "Y"], ["in\rside", "tab\t\r"])
        pair = corpus.build_parallel(a, b)
        assert pair.pairs == [("cr ", "in\rside"), ("two\r ", "tab  ")]
        path = tmp_path / "pairs.tsv"
        corpus.write_text_atomic(path, "".join(corpus.tsv_lines(pair.pairs)))
        assert corpus.read_pairs_tsv(path) == pair.pairs
        raw = corpus.ParallelPair(src="es", tgt="pt", pairs=[("x\r", "y\r")])
        corpus.write_text_atomic(path, "".join(corpus.tsv_lines(raw.pairs)))
        assert corpus.read_pairs_tsv(path) == [("x ", "y ")]

    @given(st.lists(st.tuples(_sentences, _sentences)))
    def test_roundtrip_over_arbitrary_unicode(self, examples_dir, pairs):
        # Tabs, and a final "\r", become spaces; every other character,
        # Unicode separators and inner "\r" included, reads back as written.
        def as_field(sentence):
            sentence = sentence.replace("\t", " ")
            return sentence[:-1] + " " if sentence.endswith("\r") else sentence

        path = examples_dir / "pairs.tsv"
        corpus.write_text_atomic(path, "".join(corpus.tsv_lines(pairs)))
        assert corpus.read_pairs_tsv(path) == [(as_field(s), as_field(t)) for s, t in pairs]

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only one column\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2 tab-separated"):
            corpus.read_pairs_tsv(path)

    def test_split_bundle_files(self, tmp_path):
        spec = corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.2, seed=4)
        pair = make_pair(30)
        train, dev, test = corpus.split_pair(pair, spec)
        lines = corpus.write_split_bundle(tmp_path / "es-pt", "es", "pt", train, dev, test, spec)
        for name in ("train.tsv", "dev.tsv", "test.tsv", "meta.json"):
            assert (tmp_path / "es-pt" / name).is_file()
        assert lines == corpus.tsv_lines(train.pairs)
        assert (tmp_path / "es-pt" / "train.tsv").read_text(encoding="utf-8") == "".join(lines)
        meta = json.loads((tmp_path / "es-pt" / "meta.json").read_text(encoding="utf-8"))
        assert meta["src"] == "es"
        assert meta["counts"] == {"train": len(train), "dev": len(dev), "test": len(test)}
        assert meta["seed"] == 4

    def test_rewriting_the_same_split_replaces_no_file(self, tmp_path):
        # What a rerun of `mtlearn build-corpus` does to an unchanged pair.
        spec = corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.2, seed=4)
        train, dev, test = corpus.split_pair(make_pair(30), spec)
        directory = tmp_path / "es-pt"
        corpus.write_split_bundle(directory, "es", "pt", train, dev, test, spec)
        old_ns = 1_000_000_000  # 1970; a rewrite gets the current time
        for path in directory.iterdir():
            os.utime(path, ns=(old_ns, old_ns))

        def inodes_and_mtimes():
            return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir()}

        before = inodes_and_mtimes()
        assert sorted(before) == ["dev.tsv", "meta.json", "test.tsv", "train.tsv"]
        corpus.write_split_bundle(directory, "es", "pt", train, dev, test, spec)
        assert inodes_and_mtimes() == before
