"""Tests for the synthetic cipher-language family generator.

Every invariant of the generated family is checked on the files that
`write_family` writes, or on `overlap_matrix` against `divergent_indices`.
"""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlearn import bleu, pipeline, synthetic


def write(out, **kwargs):
    """Write a family under ``out``; return its files' bytes by relative path."""
    synthetic.write_family(out, **kwargs)
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def lines(out, lang):
    """The pivot lines and the target lines that a family gives ``lang``."""
    return [
        (out / "data" / name).read_text(encoding="utf-8").splitlines()
        for name in (f"{lang}.pivot.txt", f"{lang}.txt")
    ]


def cipher_in_files(out, lang):
    """The word-for-word map from pivot to target in ``lang``'s files.

    Fails unless the two files have as many lines, each target line has
    its pivot line's word count, each pivot word has one form, no two
    words share a form, and each form is ``lang + w`` or ``"zz" + w``.
    """
    cipher = {}
    for pivot, target in zip(*lines(out, lang), strict=True):
        pivot, target = pivot.split(), target.split()
        assert len(pivot) == len(target)
        for word, form in zip(pivot, target):
            assert cipher.setdefault(word, form) == form
            assert form in (lang + word, "zz" + word)
    assert len(set(cipher.values())) == len(cipher)
    return cipher


def assert_ciphered(out, lang, vocab_size, seed):
    """Each target line of ``lang`` is its pivot line ciphered word by word:
    ``lang + w`` for a word in its divergent set, ``"zz" + w`` otherwise."""
    divergent = synthetic.divergent_indices(lang, vocab_size, seed)
    pivot, target = lines(out, lang)
    assert len(pivot) == len(target)
    for p, t in zip(pivot, target):
        expected = [(lang + w) if int(w[1:]) in divergent else ("zz" + w) for w in p.split()]
        assert t == " ".join(expected)


@pytest.fixture(scope="module")
def family(tmp_path_factory):
    out = tmp_path_factory.mktemp("family")
    info = synthetic.write_family(
        out, seed=42, n_sentences=400, vocab_size=300, coverage=0.97
    )
    return out, info


class TestVocabularyAndCiphers:
    def test_base_vocabulary_shape(self, family):
        # Pivot words are "w0000" to "w0299"; "w0000", the most frequent,
        # occurs in every language.
        out, _ = family
        vocab = {f"w{i:04d}" for i in range(300)}
        for lang in synthetic.LANGUAGES:
            words = [w for line in lines(out, lang)[0] for w in line.split()]
            assert vocab.issuperset(words)
            assert "w0000" in words

    def test_divergent_counts_match_divergence_levels(self):
        for lang, d in synthetic.DIVERGENCE.items():
            indices = synthetic.divergent_indices(lang, 900, seed=42)
            assert len(indices) == round(d * 900)
            assert all(0 <= i < 900 for i in indices)

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic language"):
            synthetic.divergent_indices("xx", 900, seed=42)

    def test_cipher_is_injective_and_prefixed(self, family):
        out, _ = family
        for lang in synthetic.LANGUAGES:
            assert cipher_in_files(out, lang)

    def test_cipher_words_survive_13a_tokenization(self, family):
        # BLEU comparisons only see cipher words as single tokens if the
        # tokenizer has no reason to split them.
        out, _ = family
        for lang in synthetic.LANGUAGES:
            for form in cipher_in_files(out, lang).values():
                assert bleu.tokenize_13a(form) == [form]

    def test_ciphers_deterministic(self, tmp_path):
        kwargs = {"n_sentences": 100, "vocab_size": 400}
        a = write(tmp_path / "a", seed=11, **kwargs)
        b = write(tmp_path / "b", seed=11, **kwargs)
        c = write(tmp_path / "c", seed=12, **kwargs)
        targets = [f"data/{lang}.txt" for lang in synthetic.LANGUAGES]
        assert [a[name] for name in targets] == [b[name] for name in targets]
        assert all(a[name] != c[name] for name in targets)
        assert cipher_in_files(tmp_path / "a", "cc") != cipher_in_files(tmp_path / "c", "cc")


class TestOverlap:
    def test_symmetric_and_bounded(self):
        matrix = synthetic.overlap_matrix(900, seed=42)
        assert len(matrix) == 20
        for (a, b), value in matrix.items():
            assert 0.0 <= value <= 1.0
            assert value == matrix[(b, a)]

    def test_more_divergent_languages_overlap_less(self):
        # aa (5% divergent) against bb (18%) must overlap more than
        # aa against ee (60%), for any seed.
        for seed in (1, 42, 999):
            matrix = synthetic.overlap_matrix(900, seed)
            assert matrix[("aa", "bb")] > matrix[("aa", "ee")]

    def test_overlap_lower_and_upper_bounds(self):
        # |D_a| + |D_b| caps the union, max(|D_a|, |D_b|) floors it.
        v = 900
        for (a, b), value in synthetic.overlap_matrix(v, seed=42).items():
            da = round(synthetic.DIVERGENCE[a] * v)
            db = round(synthetic.DIVERGENCE[b] * v)
            assert value >= 1.0 - (da + db) / v - 1e-12
            assert value <= 1.0 - max(da, db) / v + 1e-12

    @pytest.mark.parametrize("vocab_size, seed", [(900, 42), (500, 5)])
    def test_matrix_equals_pairwise_overlap(self, tmp_path, vocab_size, seed):
        # The exact value from the divergent sets, and the same matrix
        # that write_family returns.
        matrix = synthetic.overlap_matrix(vocab_size, seed)
        assert list(matrix) == [
            (a, b) for a in synthetic.LANGUAGES for b in synthetic.LANGUAGES if a != b
        ]
        for (a, b), value in matrix.items():
            da = synthetic.divergent_indices(a, vocab_size, seed)
            db = synthetic.divergent_indices(b, vocab_size, seed)
            assert value == 1.0 - len(da | db) / vocab_size
        info = synthetic.write_family(tmp_path, seed=seed, n_sentences=1, vocab_size=vocab_size)
        assert info["overlap"] == matrix


class TestPivotSentences:
    def test_count_lengths_and_determinism(self, tmp_path):
        kwargs = {"n_sentences": 200, "vocab_size": 300, "coverage": 1.0}
        a = write(tmp_path / "a", seed=9, **kwargs)
        for lang in synthetic.LANGUAGES:
            pivot, _ = lines(tmp_path / "a", lang)
            assert len(pivot) == 200
            for s in pivot:
                assert synthetic.MIN_LEN <= len(s.split()) <= synthetic.MAX_LEN
        b = write(tmp_path / "b", seed=9, **kwargs)
        c = write(tmp_path / "c", seed=10, **kwargs)
        pivots = [f"data/{lang}.pivot.txt" for lang in synthetic.LANGUAGES]
        assert [a[name] for name in pivots] == [b[name] for name in pivots]
        assert all(a[name] != c[name] for name in pivots)

    def test_zipf_skew(self, tmp_path):
        # Under Zipf weighting the most frequent word dominates the least.
        synthetic.write_family(
            tmp_path, seed=13, n_sentences=2000, vocab_size=300, coverage=1.0
        )
        counts = {}
        for s in lines(tmp_path, "aa")[0]:
            for w in s.split():
                counts[w] = counts.get(w, 0) + 1
        assert counts.get("w0000", 0) > 20 * counts.get("w0299", 0.5)


class TestWriteFamily:
    def test_line_counts_match_coverage(self, family):
        out, _ = family
        n_keep = math.ceil(0.97 * 400)
        for lang in synthetic.LANGUAGES:
            pivot_lines = (out / "data" / f"{lang}.pivot.txt").read_text().splitlines()
            target_lines = (out / "data" / f"{lang}.txt").read_text().splitlines()
            assert len(pivot_lines) == n_keep
            assert len(target_lines) == n_keep

    def test_target_is_cipher_of_pivot(self, family):
        out, _ = family
        for lang in synthetic.LANGUAGES:
            assert_ciphered(out, lang, 300, seed=42)

    def test_manifest_loads_and_points_at_files(self, family):
        out, info = family
        manifest = pipeline.load_manifest(info["manifest_path"])
        assert manifest.languages == synthetic.LANGUAGES
        for lang in synthetic.LANGUAGES:
            pivot_path, target_path = manifest.data_sources[lang]
            assert pivot_path.exists()
            assert target_path.exists()
        assert manifest.matrices is not None
        written, spoken = manifest.matrices
        assert written.scores == spoken.scores

    def test_manifest_matrices_are_percent_overlap(self, family):
        out, info = family
        raw = json.loads((out / "manifest.json").read_text())
        overlap = info["overlap"]
        for (a, b), value in overlap.items():
            assert raw["matrices"]["written"][f"{a}-{b}"] == round(value * 100.0, 4)

    def test_pairs_share_roughly_coverage_squared_sentences(self, family):
        out, _ = family
        # Each language keeps 97% of pivot lines independently, so two
        # languages share about 0.97^2 = 94% of them, and at least
        # 2 * 0.97 - 1 = 94% by inclusion-exclusion; with 400 sentences the
        # shared count must sit in a narrow band around 376.
        lines = {
            lang: set((out / "data" / f"{lang}.pivot.txt").read_text().splitlines())
            for lang in ("aa", "ee")
        }
        shared = len(lines["aa"] & lines["ee"])
        assert shared >= math.ceil((2 * 0.97 - 1) * 400) - 15
        assert shared <= math.ceil(0.97 * 400)

    def test_default_scale_shares_about_2000_sentences(self):
        # At the default 2200 sentences and 0.97 coverage every language
        # keeps 2134 lines, so pair intersections land near 2070: about
        # 2000 parallel sentences per pair before splitting.
        n, cov = synthetic.DEFAULT_N_SENTENCES, synthetic.DEFAULT_COVERAGE
        n_keep = math.ceil(cov * n)
        assert n_keep == 2134
        floor = 2 * n_keep - n
        assert floor == 2068
        assert abs(n_keep * cov - 2070) < 5

    @settings(max_examples=40, deadline=None)
    @given(
        n_sentences=st.integers(1, 60),
        vocab_size=st.integers(1, 40),
        coverage=st.floats(0.0, 1.0, exclude_min=True),
        seed=st.integers(),
    )
    def test_every_small_family_keeps_its_invariants(
        self, n_sentences, vocab_size, coverage, seed
    ):
        kwargs = {"seed": seed, "n_sentences": n_sentences, "vocab_size": vocab_size}
        with tempfile.TemporaryDirectory() as tmp:
            out, full = Path(tmp) / "family", Path(tmp) / "full"
            files = write(out, coverage=coverage, **kwargs)
            assert write(Path(tmp) / "again", coverage=coverage, **kwargs) == files
            synthetic.write_family(full, coverage=1.0, **kwargs)
            pivot, _ = lines(full, "aa")
            vocab = {f"w{i:04d}" for i in range(vocab_size)}
            for lang in synthetic.LANGUAGES:
                kept, _ = lines(out, lang)
                assert len(kept) == math.ceil(coverage * n_sentences)
                remaining = iter(pivot)
                assert all(line in remaining for line in kept)
                for line in kept:
                    assert synthetic.MIN_LEN <= len(line.split()) <= synthetic.MAX_LEN
                    assert vocab.issuperset(line.split())
                assert_ciphered(out, lang, vocab_size, seed)
                for form in cipher_in_files(out, lang).values():
                    assert bleu.tokenize_13a(form) == [form]
            overlap = synthetic.overlap_matrix(vocab_size, seed)
            written = json.loads(files["manifest.json"])["matrices"]["written"]
            assert written == {f"{a}-{b}": round(v * 100.0, 4) for (a, b), v in overlap.items()}


# sha256 of each file of write_family(out, seed=42) at the default sizes.
# Every bundle digest and the pinned Pearson r rest on these bytes.
FAMILY_SHA256 = {
    "data/aa.pivot.txt": "ccb09dc1a895f85494a2f2aab8b00da269803dd3691958c82fd5f2ab4ad49434",
    "data/aa.txt": "f04a1b89bca2b97cc1c7603666e4df472deed15e993ffbe289f5f9e7813257b3",
    "data/bb.pivot.txt": "d16d025912ce1f61706d6d970617c34ae38a70aaea363bc29305eb7429296613",
    "data/bb.txt": "ccaa49cf7bc9f6e3a0d8e930541a340bb2cedfaaad75d86d3b06ad97eace3513",
    "data/cc.pivot.txt": "7d1b7804e0710690d1a84b9401fe2c86effdc2141d6aa79d52ab254f11126b5d",
    "data/cc.txt": "6eaa963201e8eecfc9820fd670138a3292c91bddb31db7b500be1d3ac9987f4a",
    "data/dd.pivot.txt": "9500e4cb73e8fb6ca42917717e06af98cba77e20981e07e2c00e8c5af35ad7f9",
    "data/dd.txt": "f9ed173092ae30f0a86d9000ab0ed56c5ae48fa2d0ec1da8bd48c457a9a723d0",
    "data/ee.pivot.txt": "3364b135164d284e1b1f6d45a0f73e88db4be00175c151d5e26a95fb298362d7",
    "data/ee.txt": "6e8319de24ea4f2b0edc7bd9447a1812aa60f566eff0f34915b346409a216ade",
    "manifest.json": "0c20d1e811d63618637233e519edc0a23f586ac2423cd77cae55e18b2841a36a",
}


class TestGeneratedBytes:
    def test_default_family_bytes_are_pinned(self, tmp_path):
        synthetic.write_family(tmp_path, seed=42)
        written = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.rglob("*")
            if p.is_file()
        }
        assert written == FAMILY_SHA256

    def test_each_vocabulary_is_shuffled_once_per_call(self, tmp_path, monkeypatch):
        # One shuffle per language for its divergent set and one for its
        # coverage. Two calls in one process count the same, so no cache
        # kept across calls can stand in for sharing within a call.
        calls = []
        real_permutation = synthetic.permutation

        def counting(n, seed):
            calls.append(n)
            return real_permutation(n, seed)

        monkeypatch.setattr(synthetic, "permutation", counting)
        for attempt in range(2):
            calls.clear()
            synthetic.write_family(tmp_path / str(attempt), n_sentences=50, vocab_size=40)
            assert sorted(calls) == [40] * 5 + [50] * 5
            calls.clear()
            synthetic.overlap_matrix(40)
            assert calls == [40] * 5

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"coverage": 0.0}, "coverage"),
            ({"coverage": -0.5}, "coverage"),
            ({"coverage": 1.5}, "coverage"),
            ({"coverage": float("nan")}, "coverage"),
            ({"n_sentences": 0}, "n_sentences"),
            ({"vocab_size": 0}, "vocab_size"),
        ],
    )
    def test_bad_sizes_rejected_before_writing(self, tmp_path, kwargs, name):
        with pytest.raises(ValueError, match=name):
            synthetic.write_family(tmp_path / "family", **kwargs)
        assert not (tmp_path / "family").exists()

    def test_full_coverage_keeps_every_sentence(self, tmp_path):
        # Every language keeps all 30 pivot lines, in the order that any
        # lower coverage selects its lines from.
        synthetic.write_family(tmp_path / "full", n_sentences=30, vocab_size=20, coverage=1.0)
        synthetic.write_family(tmp_path / "half", n_sentences=30, vocab_size=20, coverage=0.5)
        pivot, _ = lines(tmp_path / "full", "aa")
        assert len(pivot) == 30
        for lang in synthetic.LANGUAGES:
            assert lines(tmp_path / "full", lang)[0] == pivot
            remaining = iter(pivot)
            assert all(line in remaining for line in lines(tmp_path / "half", lang)[0])
