"""Tests for the self-contained corpus BLEU scorer.

The hand-worked score and the brute-force counter below were derived
independently of the implementation, so they act as oracles rather than
snapshots.
"""

import json
import math
import random
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtlearn import bleu


class TestTokenizer:
    def test_punctuation_isolated(self):
        assert bleu.tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_whitespace_normalized_first(self):
        assert bleu.tokenize_13a("  a   b\tc ") == ["a", "b", "c"]

    def test_decimal_point_kept_inside_number(self):
        assert bleu.tokenize_13a("pi is 3.14 today") == ["pi", "is", "3.14", "today"]

    def test_thousands_comma_kept_inside_number(self):
        assert bleu.tokenize_13a("1,000 items") == ["1,000", "items"]

    def test_period_split_when_not_between_digits(self):
        assert bleu.tokenize_13a("End.") == ["End", "."]
        assert bleu.tokenize_13a("3. 4") == ["3", ".", "4"]
        assert bleu.tokenize_13a("a.5") == ["a", ".", "5"]
        assert bleu.tokenize_13a("5.a") == ["5", ".", "a"]

    def test_number_at_string_edges_splits(self):
        # '.' at the very start or end has no digit on both sides.
        assert bleu.tokenize_13a(".5") == [".", "5"]
        assert bleu.tokenize_13a("5.") == ["5", "."]

    def test_unicode_letters_kept_together(self):
        assert bleu.tokenize_13a("Café olé") == ["Café", "olé"]

    def test_hyphen_splits(self):
        assert bleu.tokenize_13a("state-of-the-art") == [
            "state", "-", "of", "-", "the", "-", "art"
        ]

    def test_empty_and_whitespace_only(self):
        assert bleu.tokenize_13a("") == []
        assert bleu.tokenize_13a("   ") == []

    def test_superscript_digit_is_not_word_char(self):
        # Unicode category No, unlike Nd, splits off.
        assert bleu.tokenize_13a("x²") == ["x", "²"]

    @given(st.text())
    def test_idempotent_under_join(self, text):
        tokens = bleu.tokenize_13a(text)
        assert bleu.tokenize_13a(" ".join(tokens)) == tokens

    @given(st.one_of(st.text(), st.text(alphabet="ab7٣²Ⅻé\u0301.,- \t")))
    def test_matches_per_character_reference(self, text):
        assert bleu.tokenize_13a(text) == reference_tokenize(text)


def reference_tokenize(text):
    """The tokenizer's rules applied one character at a time, by category."""
    norm = " ".join(text.split())
    last = len(norm) - 1

    def word_char(ch):
        cat = unicodedata.category(ch)
        return cat[0] == "L" or cat == "Nd"

    def digit(ch):
        return unicodedata.category(ch) == "Nd"

    out = []
    for i, ch in enumerate(norm):
        if word_char(ch):
            out.append(ch)
        elif ch in ".," and 0 < i < last and digit(norm[i - 1]) and digit(norm[i + 1]):
            out.append(ch)
        else:
            out.append(f" {ch} ")
    return "".join(out).split()


# ---------------------------------------------------------------------------
# Brute-force oracle: counts n-grams with nested loops and explicit dicts,
# sharing no code with the implementation under test.
# ---------------------------------------------------------------------------


def oracle_row(hyp, ref):
    """matches[1..4], totals[1..4], hyp_len, ref_len of one segment."""
    matches, totals = [], []
    for n in (1, 2, 3, 4):
        hyp_ngrams = {}
        for i in range(len(hyp) - n + 1):
            g = tuple(hyp[i:i + n])
            hyp_ngrams[g] = hyp_ngrams.get(g, 0) + 1
        ref_ngrams = {}
        for i in range(len(ref) - n + 1):
            g = tuple(ref[i:i + n])
            ref_ngrams[g] = ref_ngrams.get(g, 0) + 1
        matches.append(sum(min(c, ref_ngrams.get(g, 0)) for g, c in hyp_ngrams.items()))
        totals.append(max(len(hyp) - n + 1, 0))
    return (*matches, *totals, len(hyp), len(ref))


def oracle_bleu(hyp_token_lists, ref_token_lists):
    sums = [sum(column) for column in zip(*map(oracle_row, hyp_token_lists, ref_token_lists))]
    matches, totals = sums[:4], sums[4:8]
    hyp_len, ref_len = sums[8:]
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        return 0.0
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)


def random_sentence(rnd, vocab, lo=1, hi=15):
    return " ".join(rnd.choice(vocab) for _ in range(rnd.randrange(lo, hi)))


class TestCorpusBleu:
    def test_identity_corpus_scores_100(self):
        refs = [
            "the cat sat on the mat",
            "a quick brown fox jumps over dogs",
            "numbers like 3.14 survive tokenization",
        ]
        assert bleu.corpus_bleu(list(refs), refs).score == 100.0

    def test_hand_derived_example(self):
        # hyp "a b c d f" vs ref "a b c d e f":
        #   unigrams 5/5, bigrams 3/4 (df misses), trigrams 2/3 (cdf
        #   misses), 4-grams 1/2 (bcdf misses); BP = exp(1 - 6/5).
        result = bleu.corpus_bleu(["a b c d f"], ["a b c d e f"])
        assert result.precisions == (1.0, 0.75, 2.0 / 3.0, 0.5)
        assert result.brevity_penalty == pytest.approx(math.exp(-0.2), abs=1e-15)
        assert result.score == pytest.approx(57.89, abs=0.01)
        # Full-precision value of 100*exp(-0.2)*(0.25)**0.25:
        assert result.score == pytest.approx(57.89300674674099, abs=1e-10)

    def test_zero_precision_gives_zero(self):
        # No 4-gram overlap at all: p4 == 0 -> score 0 without smoothing.
        result = bleu.corpus_bleu(["a b c d e"], ["a b c x e f"])
        assert result.precisions[3] == 0.0
        assert result.score == 0.0

    def test_brevity_penalty_only_when_shorter(self):
        long_hyp = bleu.corpus_bleu(["a b c d e f g"], ["a b c d e"])
        assert long_hyp.brevity_penalty == 1.0
        short_hyp = bleu.corpus_bleu(["a b c d e"], ["a b c d e f g"])
        assert short_hyp.brevity_penalty == pytest.approx(math.exp(1 - 7 / 5))

    def test_clipping_counts(self):
        # "the the the" against a single "the": clipped to 1 match of 3.
        result = bleu.corpus_bleu(["the the the"], ["the cat sat"])
        assert result.precisions[0] == pytest.approx(1.0 / 3.0)

    def test_corpus_level_aggregation_not_average(self):
        # Corpus BLEU sums counts before dividing, so it differs from the
        # mean of per-sentence scores when segment lengths differ.
        hyps = ["a b c d e", "x"]
        refs = ["a b c d e", "y"]
        combined = bleu.corpus_bleu(hyps, refs)
        first_only = bleu.corpus_bleu(hyps[:1], refs[:1])
        assert combined.score < first_only.score
        # Unigram pool: 5 matches of 6 hypothesis tokens.
        assert combined.precisions[0] == pytest.approx(5.0 / 6.0)

    def test_matches_bruteforce_oracle_on_random_corpora(self):
        rnd = random.Random(20240817)
        vocab = ["a", "b", "c", "d", "e", "f", "g", "h", "the", "cat", "42"]
        for trial in range(50):
            n = rnd.randrange(1, 8)
            hyps = [random_sentence(rnd, vocab) for _ in range(n)]
            refs = [random_sentence(rnd, vocab) for _ in range(n)]
            result = bleu.corpus_bleu(hyps, refs)
            expected = oracle_bleu(
                [bleu.tokenize_13a(h) for h in hyps],
                [bleu.tokenize_13a(r) for r in refs],
            )
            assert result.score == expected, f"trial {trial}"

    def test_empty_hypothesis_lines(self):
        result = bleu.corpus_bleu(["", ""], ["a b", "c d"])
        assert result.hyp_len == 0
        assert result.brevity_penalty == 0.0
        assert result.score == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="counts differ"):
            bleu.corpus_bleu(["a"], ["a", "b"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bleu.corpus_bleu([], [])

    def test_serialization_rounds_to_2_decimals(self):
        result = bleu.corpus_bleu(["a b c d f"], ["a b c d e f"])
        data = json.loads(result.to_json())
        assert data["score"] == 57.89
        assert data["hyp_len"] == 5
        assert data["ref_len"] == 6
        # Internal value keeps full precision.
        assert result.score != data["score"]


# ---------------------------------------------------------------------------
# Properties over generated corpora. Words include punctuation and numbers
# so that tokenization is not the identity; sentences run from 0 tokens
# (an empty hypothesis) up, so 1- to 3-token sentences with no 4-grams occur.
# ---------------------------------------------------------------------------

WORDS = ["a", "b", "c", "the", "cat", "3.14", "1,000", "x.", "(y)", "é", "-"]


def sentences(min_words=0, max_words=8):
    return st.lists(st.sampled_from(WORDS), min_size=min_words, max_size=max_words).map(
        " ".join
    )


corpora = st.lists(st.tuples(sentences(), sentences()), min_size=1, max_size=6)


class TestCorpusBleuProperties:
    @given(corpora)
    def test_fold_matches_bruteforce_oracle(self, corpus):
        hyps, refs = map(list, zip(*corpus))
        result = bleu.corpus_bleu(hyps, refs)
        hyp_tokens = [bleu.tokenize_13a(h) for h in hyps]
        ref_tokens = [bleu.tokenize_13a(r) for r in refs]
        assert result.score == oracle_bleu(hyp_tokens, ref_tokens)
        assert result.hyp_len == sum(map(len, hyp_tokens))
        assert result.ref_len == sum(map(len, ref_tokens))

    @given(st.lists(sentences(), min_size=1, max_size=5), st.data())
    def test_shared_references_score_like_fresh_lists(self, refs, data):
        shared = bleu.References(refs)
        assert list(shared) == refs
        # Hypotheses often repeat a reference or each other, as the
        # fractions of one pair do, so the memo is hit as well as filled.
        hypothesis = st.one_of(sentences(), st.sampled_from(refs))
        hyp_sets = data.draw(
            st.lists(
                st.lists(hypothesis, min_size=len(refs), max_size=len(refs)),
                min_size=1,
                max_size=4,
            )
        )
        order = data.draw(st.permutations(range(len(hyp_sets))))
        for i in order + order:
            assert bleu.corpus_bleu(hyp_sets[i], shared) == bleu.corpus_bleu(
                hyp_sets[i], list(refs)
            )

    @given(st.lists(st.tuples(st.one_of(st.text(), sentences()), sentences()), min_size=1))
    def test_score_lies_in_0_to_100(self, corpus):
        hyps, refs = map(list, zip(*corpus))
        assert 0.0 <= bleu.corpus_bleu(hyps, refs).score <= 100.0

    @given(st.lists(sentences(min_words=4), min_size=1, max_size=6))
    def test_identity_scores_100_when_sentences_have_4_tokens(self, refs):
        assert bleu.corpus_bleu(list(refs), bleu.References(refs)).score == 100.0

    @given(st.lists(st.tuples(st.one_of(st.text(), sentences()), sentences()), min_size=1))
    def test_score_from_summed_stats_is_corpus_bleu(self, corpus):
        hyps, refs = map(list, zip(*corpus))
        rows = [bleu.References(refs).stats(i, h) for i, h in enumerate(hyps)]
        sums = [sum(column) for column in zip(*rows)]
        assert bleu.score_from_stats(sums) == bleu.corpus_bleu(hyps, refs)


# Reference sentences with punctuation, numbers and non-ASCII letters, and
# hypotheses that are mostly the reference itself or differ from it only in
# whitespace or in where the tokenizer splits, as a well-trained model's are.
RICH_WORDS = WORDS + ["ça", "naïve", "Ωμέγα", "日本語", "e\u0301", "don't", "?!", "٣.٤", "x²"]
SPACES = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u3000", " \n "])


def rich_sentences(max_words=8):
    return st.lists(st.sampled_from(RICH_WORDS), max_size=max_words).map(" ".join)


@st.composite
def hypotheses_of(draw, reference):
    kind = draw(st.sampled_from(["same", "respaced", "retokenized", "other"]))
    if kind == "same":
        return reference
    if kind == "respaced":
        words = reference.split()
        gaps = draw(st.lists(SPACES, min_size=len(words) + 1, max_size=len(words) + 1))
        return gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))
    if kind == "retokenized":
        return " ".join(bleu.tokenize_13a(reference))
    return draw(st.one_of(rich_sentences(), st.text()))


class TestReferenceStats:
    @given(st.lists(rich_sentences(), min_size=1, max_size=4), st.data())
    def test_rows_match_bruteforce_oracle(self, refs, data):
        shared = bleu.References(refs)
        for i, ref in enumerate(refs):
            for _ in range(2):  # a second hypothesis may hit the memo
                hyp = data.draw(hypotheses_of(ref))
                expected = oracle_row(reference_tokenize(hyp), reference_tokenize(ref))
                assert shared.stats(i, hyp) == expected
                assert bleu.References(refs).stats(i, hyp) == expected

    def test_equal_tokens_count_no_ngram(self, monkeypatch):
        refs = bleu.References(["the cat , sat", "a b"])

        def no_counting(tokens):
            raise AssertionError("equal tokens need no n-gram count")

        monkeypatch.setattr(bleu, "_ngram_counts", no_counting)
        assert refs.stats(0, "the cat , sat") == (4, 3, 2, 1, 4, 3, 2, 1, 4, 4)
        assert refs.stats(0, " the  cat, sat ") == (4, 3, 2, 1, 4, 3, 2, 1, 4, 4)
        assert refs.stats(1, "a\tb") == (2, 1, 0, 0, 2, 1, 0, 0, 2, 2)
