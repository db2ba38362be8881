"""Tests for the synthetic cipher-language family generator."""

import hashlib
import json
import math

import pytest

from mtlearn import bleu, pipeline, synthetic


class TestVocabularyAndCiphers:
    def test_base_vocabulary_shape(self):
        vocab = synthetic.base_vocabulary(900)
        assert len(vocab) == 900
        assert vocab[0] == "w0000"
        assert vocab[899] == "w0899"
        assert len(set(vocab)) == 900

    def test_divergent_counts_match_divergence_levels(self):
        for lang, d in synthetic.DIVERGENCE.items():
            indices = synthetic.divergent_indices(lang, 900, seed=42)
            assert len(indices) == round(d * 900)
            assert all(0 <= i < 900 for i in indices)

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic language"):
            synthetic.divergent_indices("xx", 900, seed=42)

    def test_cipher_is_injective_and_prefixed(self):
        for lang in synthetic.LANGUAGES:
            cipher = synthetic.cipher_for(lang, 300, seed=7)
            assert len(set(cipher.values())) == len(cipher)
            for word, mapped in cipher.items():
                assert mapped in (lang + word, "zz" + word)

    def test_cipher_words_survive_13a_tokenization(self):
        # BLEU comparisons only see cipher words as single tokens if the
        # tokenizer has no reason to split them.
        for lang in synthetic.LANGUAGES:
            cipher = synthetic.cipher_for(lang, 200, seed=3)
            for mapped in cipher.values():
                assert bleu.tokenize_13a(mapped) == [mapped]

    def test_ciphers_deterministic(self):
        a = synthetic.cipher_for("cc", 400, seed=11)
        b = synthetic.cipher_for("cc", 400, seed=11)
        assert a == b
        c = synthetic.cipher_for("cc", 400, seed=12)
        assert a != c


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
            near = synthetic.vocabulary_overlap("aa", "bb", 900, seed)
            far = synthetic.vocabulary_overlap("aa", "ee", 900, seed)
            assert near > far

    def test_overlap_lower_and_upper_bounds(self):
        # |D_a| + |D_b| caps the union, max(|D_a|, |D_b|) floors it.
        v = 900
        for (a, b), value in synthetic.overlap_matrix(v, seed=42).items():
            da = round(synthetic.DIVERGENCE[a] * v)
            db = round(synthetic.DIVERGENCE[b] * v)
            assert value >= 1.0 - (da + db) / v - 1e-12
            assert value <= 1.0 - max(da, db) / v + 1e-12

    def test_exact_value_from_sets(self):
        da = synthetic.divergent_indices("bb", 500, seed=5)
        db = synthetic.divergent_indices("dd", 500, seed=5)
        expected = 1.0 - len(da | db) / 500
        assert synthetic.vocabulary_overlap("bb", "dd", 500, seed=5) == expected

    @pytest.mark.parametrize("vocab_size, seed", [(900, 42), (500, 5)])
    def test_matrix_equals_pairwise_overlap(self, vocab_size, seed):
        matrix = synthetic.overlap_matrix(vocab_size, seed)
        assert list(matrix) == [
            (a, b) for a in synthetic.LANGUAGES for b in synthetic.LANGUAGES if a != b
        ]
        for (a, b), value in matrix.items():
            assert value == synthetic.vocabulary_overlap(a, b, vocab_size, seed)


class TestPivotSentences:
    def test_count_lengths_and_determinism(self):
        sents = synthetic.generate_pivot_sentences(200, 300, seed=9)
        assert len(sents) == 200
        for s in sents:
            n = len(s.split())
            assert synthetic.MIN_LEN <= n <= synthetic.MAX_LEN
        assert sents == synthetic.generate_pivot_sentences(200, 300, seed=9)
        assert sents != synthetic.generate_pivot_sentences(200, 300, seed=10)

    def test_zipf_skew(self):
        # Under Zipf weighting the most frequent word dominates the least.
        sents = synthetic.generate_pivot_sentences(2000, 300, seed=13)
        counts = {}
        for s in sents:
            for w in s.split():
                counts[w] = counts.get(w, 0) + 1
        assert counts.get("w0000", 0) > 20 * counts.get("w0299", 0.5)


@pytest.fixture(scope="module")
def family(tmp_path_factory):
    out = tmp_path_factory.mktemp("family")
    info = synthetic.write_family(
        out, seed=42, n_sentences=400, vocab_size=300, coverage=0.97
    )
    return out, info


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
        cipher = synthetic.cipher_for("aa", 300, seed=42)
        pivot_lines = (out / "data" / "aa.pivot.txt").read_text().splitlines()
        target_lines = (out / "data" / "aa.txt").read_text().splitlines()
        for p, t in zip(pivot_lines[:50], target_lines[:50]):
            assert t == " ".join(cipher[w] for w in p.split())

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
        synthetic.write_family(tmp_path, n_sentences=30, vocab_size=20, coverage=1.0)
        pivot = synthetic.generate_pivot_sentences(30, 20)
        for lang in synthetic.LANGUAGES:
            lines = (tmp_path / "data" / f"{lang}.pivot.txt").read_text().splitlines()
            assert lines == pivot
