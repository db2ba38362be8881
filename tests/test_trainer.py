"""Tests for the builtin Model 1 trainer and the external adapter.

The EM oracle below re-derives expected counts by brute-force enumeration
of alignment functions, which is mathematically equivalent to the factored
E-step but shares no structure with the implementation.
"""

import bisect
import itertools
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtlearn
from mtlearn import bleu, sampling, trainer
from mtlearn._rng import SplitMix64, derive_seed

NULL = trainer.NULL_TOKEN


# ---------------------------------------------------------------------------
# Brute-force EM oracle
# ---------------------------------------------------------------------------


def oracle_em(pairs, iterations):
    """Model 1 EM via explicit alignment enumeration.

    P(t, a | s) = prod_j t(t_j | s_{a(j)}) up to the constant 1/(l+1)^m;
    expected counts are posterior-weighted sums over every alignment
    function a. Exponential in sentence length, so only for tiny corpora.
    """
    tokenized = [
        ([NULL] + s.split(), t.split()) for s, t in pairs if s.split() and t.split()
    ]
    cooc = {}
    for src, tgt in tokenized:
        for s in src:
            cooc.setdefault(s, set()).update(tgt)
    table = {s: {t: 1.0 / len(ts) for t in ts} for s, ts in cooc.items()}

    lls = []
    for _ in range(iterations):
        counts = {}
        totals = {}
        ll = 0.0
        for src, tgt in tokenized:
            m = len(tgt)
            alignments = list(itertools.product(range(len(src)), repeat=m))
            joint = []
            for a in alignments:
                p = 1.0
                for j, i in enumerate(a):
                    p *= table[src[i]][tgt[j]]
                joint.append(p)
            z = sum(joint)
            ll += math.log(z) - m * math.log(len(src))
            for a, p in zip(alignments, joint):
                w = p / z
                for j, i in enumerate(a):
                    s, t = src[i], tgt[j]
                    counts.setdefault(s, {}).setdefault(t, 0.0)
                    counts[s][t] += w
                    totals[s] = totals.get(s, 0.0) + w
        lls.append(ll)
        table = {
            s: {t: c / totals[s] for t, c in tc.items()} for s, tc in counts.items()
        }
    return table, lls


def random_toy_corpus(rnd, n_pairs=6, vocab=5, max_len=3):
    src_vocab = [f"s{i}" for i in range(vocab)]
    tgt_vocab = [f"t{i}" for i in range(vocab)]
    pairs = []
    for _ in range(n_pairs):
        length = rnd.randrange(1, max_len + 1)
        src = [rnd.choice(src_vocab) for _ in range(length)]
        tgt = [rnd.choice(tgt_vocab) for _ in range(length)]
        pairs.append((" ".join(src), " ".join(tgt)))
    return pairs


def side(vocab):
    """Strategy for a sentence of 0 to 3 tokens drawn from `vocab`."""
    return st.lists(st.sampled_from(vocab), max_size=3).map(" ".join)


# Corpora of 1 to 4 pairs, sides of 0 to 3 tokens from a 3-word vocabulary:
# empty sides, 1-token sentences and tokens repeated within a sentence are
# all common, and the first pair is repeated in half the corpora.
corpora = st.tuples(
    st.lists(st.tuples(side("abc"), side("xyz")), min_size=1, max_size=4),
    st.booleans(),
).map(lambda drawn: drawn[0] + drawn[0][:1] if drawn[1] else drawn[0])


def assert_matches_oracle(pairs, iterations):
    mine = trainer.train_model1(pairs, iterations)
    expected_table, expected_lls = oracle_em(pairs, iterations)
    assert set(mine.entries) == set(expected_table)
    for s in expected_table:
        assert set(mine.entries[s]) == set(expected_table[s])
        for t, p in expected_table[s].items():
            assert mine.entries[s][t] == pytest.approx(p, abs=1e-12)
    assert len(mine.log_likelihoods) == len(expected_lls)
    for got, want in zip(mine.log_likelihoods, expected_lls):
        assert got == pytest.approx(want, abs=1e-12)
    return mine


class TestTrainModel1:
    def test_single_pair_is_certain(self):
        table = trainer.train_model1([("a", "x")], iterations=3)
        assert table.entries["a"] == {"x": 1.0}
        assert table.entries[NULL] == {"x": 1.0}

    def test_disambiguation_after_10_iterations(self):
        table = trainer.train_model1([("a b", "x y"), ("a", "x")], iterations=10)
        assert table.entries["a"]["x"] > table.entries["a"]["y"]

    def test_distributions_sum_to_1(self):
        rnd = random.Random(5)
        for _ in range(5):
            pairs = random_toy_corpus(rnd)
            table = trainer.train_model1(pairs, iterations=4)
            for src, dist in table.entries.items():
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
                assert all(0.0 <= p <= 1.0 for p in dist.values())
                assert dist  # no empty inner maps

    def test_log_likelihood_non_decreasing(self):
        rnd = random.Random(6)
        for _ in range(3):
            pairs = random_toy_corpus(rnd, n_pairs=10, vocab=6, max_len=4)
            table = trainer.train_model1(pairs, iterations=20)
            assert len(table.log_likelihoods) == 20
            for prev, cur in zip(table.log_likelihoods, table.log_likelihoods[1:]):
                assert cur >= prev - 1e-9

    def test_matches_alignment_enumeration_oracle(self):
        corpora = [
            [("a b", "x y"), ("a", "x")],
            [("p q r", "u v"), ("q", "v"), ("r p", "w u")],
        ]
        rnd = random.Random(7)
        corpora.append(random_toy_corpus(rnd, n_pairs=5, vocab=4, max_len=3))
        for pairs in corpora:
            for iterations in (1, 2, 3):
                assert_matches_oracle(pairs, iterations)

    @settings(max_examples=200, deadline=None)
    @given(corpus=corpora, iterations=st.integers(min_value=1, max_value=3))
    def test_matches_oracle_on_arbitrary_corpora(self, corpus, iterations):
        usable = [(s, t) for s, t in corpus if s.split() and t.split()]
        if not usable:
            with pytest.raises(ValueError, match="empty"):
                trainer.train_model1(corpus, iterations)
            return
        mine = assert_matches_oracle(corpus, iterations)
        assert mine.skipped_pairs == len(corpus) - len(usable)

    @settings(max_examples=200, deadline=None)
    @given(corpus=corpora, iterations=st.integers(min_value=1, max_value=3), data=st.data())
    def test_subset_of_an_index_matches_the_list_of_its_pairs(
        self, corpus, iterations, data
    ):
        # The index numbers tokens over the whole corpus, the list only over
        # the subset; the floats must not depend on that numbering.
        idx = sorted(data.draw(st.sets(st.integers(0, len(corpus) - 1))))
        index = trainer.Model1Corpus(corpus)
        view = index.subset(idx)
        pairs = [corpus[i] for i in idx]
        assert len(view) == len(pairs)
        if not any(s.split() and t.split() for s, t in pairs):
            for training_set in (view, pairs):
                with pytest.raises(ValueError, match="empty"):
                    trainer.train_model1(training_set, iterations)
        else:
            got = trainer.train_model1(view, iterations)
            want = trainer.train_model1(pairs, iterations)
            assert got.entries == want.entries
            assert got.argmax == want.argmax
            assert got.skipped_pairs == want.skipped_pairs
            assert got.log_likelihoods == want.log_likelihoods
        bad = [[0, 0], [len(corpus)], [-1]]
        if idx:
            bad.append(idx + idx[-1:])  # a repeated index
        if len(idx) > 1:
            bad.append(idx[::-1])  # decreasing
        for indices in bad:
            with pytest.raises(ValueError, match="strictly increase"):
                index.subset(indices)

    def test_one_index_serves_nested_subsets(self):
        pairs = [("a b", "x y"), ("", "z"), ("b c", "y w"), ("c", "w"), ("a", "x")]
        index = trainer.Model1Corpus(pairs)
        for idx in ([0], [0, 1], [2, 3, 4], [0, 1, 2, 3, 4]):
            got = trainer.train_model1(index.subset(idx), 4)
            want = trainer.train_model1([pairs[i] for i in idx], 4)
            assert got.entries == want.entries
            assert got.skipped_pairs == want.skipped_pairs
        with pytest.raises(ValueError, match="empty"):
            trainer.train_model1(index.subset([1]), 1)
        with pytest.raises(ValueError, match="empty"):
            trainer.train_model1(index.subset([]), 1)

    @settings(max_examples=200, deadline=None)
    @given(corpus=corpora, iterations=st.integers(min_value=1, max_value=3))
    @example(corpus=[("a b", "x"), ("", "y"), ("c", ""), ("a", "x z")], iterations=3)
    def test_full_and_masked_views_match_the_list_and_keep_the_index(self, corpus, iterations):
        # A view of every pair reads the index's rows unmasked; a view that
        # leaves out one pair masks its rows. Both, and the list, must give
        # the same floats to the last bit.
        if not any(s.split() and t.split() for s, t in corpus):
            return
        index = trainer.Model1Corpus(corpus)
        full = trainer.train_model1(index.subset(range(len(corpus))), iterations)
        extended = trainer.Model1Corpus([*corpus, ("a w", "ww x")])
        masked = trainer.train_model1(extended.subset(range(len(corpus))), iterations)
        for table in (masked, trainer.train_model1(corpus, iterations)):
            assert hexed(table.entries) == hexed(full.entries)
            assert table.argmax == full.argmax
            assert table.skipped_pairs == full.skipped_pairs
            assert table.log_likelihoods == full.log_likelihoods
        # Training read the index and changed none of it.
        again = trainer.train_model1(index.subset(range(len(corpus))), iterations)
        assert hexed(again.entries) == hexed(full.entries)

    @settings(max_examples=200, deadline=None)
    @given(corpus=corpora)
    def test_a_rows_cell_names_its_source_and_target(self, corpus):
        index = trainer.Model1Corpus(corpus)
        rows = [
            (s, t)
            for src, tgt in corpus
            if src.split() and tgt.split()
            for t in tgt.split()
            for s in [NULL, *src.split()]
        ]
        assert [index.src_words[s] for s in index.cell_src[index.cell].tolist()] == [
            s for s, _ in rows
        ]
        assert [index.tgt_words[t] for t in index.cell_tgt[index.cell].tolist()] == [
            t for _, t in rows
        ]

    def test_the_index_holds_one_row_length_array(self):
        # 14 rows, 6 cells, 3 pairs: each array's length says what it is per.
        index = trainer.Model1Corpus([("a b a", "x y"), ("b", "x x x"), ("", "z")])
        n_rows = int(index.pair_rows.sum())
        assert (n_rows, len(index.cell_src), len(index)) == (14, 6, 3)
        arrays = {k: a for k, a in vars(index).items() if isinstance(a, np.ndarray)}
        assert [k for k, a in arrays.items() if len(a) == n_rows] == ["cell"]
        assert index.cell.dtype == np.int32

    def test_empty_sides_skipped_with_count(self):
        pairs = [("a", "x"), ("", "x"), ("a", "   "), ("b", "y")]
        table = trainer.train_model1(pairs, iterations=2)
        assert table.skipped_pairs == 2
        assert "b" in table.entries

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            trainer.train_model1([], iterations=1)
        with pytest.raises(ValueError, match="empty"):
            trainer.train_model1([("", "x")], iterations=1)

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            trainer.train_model1([("a", "x")], iterations=0)

    def test_lexical_table_validates_distributions(self):
        def table(sources, lengths, probs):
            # Each source's cells have the targets x, y, x, ... in turn.
            return trainer.LexicalTable(
                sources,
                np.array(lengths, dtype=np.int64),
                ["x", "y"],
                np.resize(np.array([0, 1], dtype=np.int32), len(probs)),
                np.array(probs, dtype=np.float64),
                (),
                0,
            )

        with pytest.raises(ValueError, match="distribution for 'a' sums to 0.5, not 1"):
            table(["a"], [1], [0.5])
        with pytest.raises(ValueError, match="empty distribution for source token 'a'"):
            table(["a", "b"], [0, 1], [1.0])
        with pytest.raises(ValueError, match="distribution for 'a' sums to nan"):
            table(["a"], [2], [float("nan"), 0.5])
        # 1e-10 off 1 is within the 1e-9 tolerance, 1e-8 off is not.
        with pytest.raises(ValueError, match="distribution for 'b' sums to"):
            table(["a", "b"], [2, 2], [0.5, 0.5 + 1e-10, 0.5, 0.5 + 1e-8])
        assert table(["a"], [2], [0.5, 0.5 + 1e-10]).argmax == {"a": "y"}

    def test_lexical_table_repr(self):
        table = trainer.train_model1([("a", "x")], iterations=1)
        assert repr(table) == (
            "<LexicalTable entries={'<NULL>': {'x': 1.0}, 'a': {'x': 1.0}} "
            "log_likelihoods=(0.0,) skipped_pairs=0>"
        )


def entries_as_built_before(table):
    """Reference: the dicts as `train_model1` built them eagerly after EM.

    One dict per source token, zipped from the cell targets and
    probabilities in cell order; the table's arrays are its EM arrays.
    """
    targets = [table._words[t] for t in table._targets.tolist()]
    probs = table._probs.tolist()
    ends = table._lengths.cumsum().tolist()
    entries = {}
    lo = 0
    for src, hi in zip(table._sources, ends):
        entries[src] = dict(zip(targets[lo:hi], probs[lo:hi]))
        lo = hi
    return entries


def argmax_as_searched_before(entries):
    """Reference: the per-distribution argmax search, smallest token on
    ties, of every source but NULL, which no sentence translates."""
    argmax = {}
    for src, dist in entries.items():
        if src == NULL:
            continue
        top = max(dist.values())
        argmax[src] = min(t for t, p in dist.items() if p == top)
    return argmax


def table_arrays(entries):
    """The arrays `LexicalTable` takes for ``{source: {target: p}}`` dicts."""
    targets = [t for dist in entries.values() for t in dist]
    words = sorted(set(targets))  # code-point order
    rank = {t: r for r, t in enumerate(words)}
    return (
        list(entries),
        np.array([len(dist) for dist in entries.values()], dtype=np.int64),
        words,
        np.array([rank[t] for t in targets], dtype=np.int32),
        np.array([p for dist in entries.values() for p in dist.values()], dtype=np.float64),
    )


def hexed(entries):
    return {s: [(t, p.hex()) for t, p in dist.items()] for s, dist in entries.items()}


# Target words whose code-point order differs from case-blind and from
# locale order: capitals sort before lowercase, accented letters after "z".
ODD_WORDS = ["a", "B", "b", "Z", "z", "é", "É", "ä", "ß", "Ω", "zz", "aé"]


class TestArrayTable:
    @settings(max_examples=200, deadline=None)
    @given(
        corpus=corpora,
        words=st.lists(st.sampled_from(ODD_WORDS), min_size=3, max_size=3, unique=True),
        iterations=st.integers(min_value=1, max_value=3),
    )
    def test_trained_table_matches_eager_dicts_and_search(self, corpus, words, iterations):
        rename = dict(zip("xyz", words))
        corpus = [
            (s, " ".join(rename[w] for w in t.split())) for s, t in corpus
        ]
        if not any(s.split() and t.split() for s, t in corpus):
            return
        table = trainer.train_model1(corpus, iterations)
        assert "entries" not in vars(table)  # built on first read only
        want = entries_as_built_before(table)
        assert hexed(table.entries) == hexed(want)
        assert table.argmax == argmax_as_searched_before(want)
        assert list(table.argmax) == [src for src in want if src != NULL]
        # The index numbers its target words in code-point order, each
        # cell's target id names the word it co-occurs with, and it holds
        # no object arrays.
        index = trainer.Model1Corpus(corpus)
        assert index.tgt_words == sorted(index.tgt_words)
        cells = {
            (index.src_words[s], index.tgt_words[t])
            for s, t in zip(index.cell_src.tolist(), index.cell_tgt.tolist())
        }
        assert cells == {
            (s, t)
            for src, tgt in corpus
            if src.split() and tgt.split()
            for s in [NULL, *src.split()]
            for t in tgt.split()
        }
        arrays = [a for a in vars(index).values() if isinstance(a, np.ndarray)]
        assert arrays and all(a.dtype != object for a in arrays)

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.dictionaries(
            st.sampled_from(ODD_WORDS + [NULL]),
            st.dictionaries(
                st.sampled_from(ODD_WORDS), st.integers(1, 3), min_size=1, max_size=6
            ),
            max_size=5,
        ),
        fault=st.sampled_from([None, "empty", "mass", "1e-8", "1e-10"]),
        data=st.data(),
    )
    def test_table_from_arrays_keeps_errors_and_tie_break(self, counts, fault, data):
        # Small integer counts tie often; dividing by the total sums to 1
        # within rounding.
        entries = {
            s: {t: c / sum(dist.values()) for t, c in dist.items()}
            for s, dist in counts.items()
        }
        if fault and entries:
            dist = entries[data.draw(st.sampled_from(sorted(entries)))]
            if fault == "empty":
                dist.clear()
            elif fault == "mass":
                for t in dist:
                    dist[t] *= 1.5
            else:  # either side of the 1e-9 tolerance
                dist[next(iter(dist))] += float(fault)
            error = {"empty": "empty", "mass": "sums to", "1e-8": "sums to"}.get(fault)
            if error:
                with pytest.raises(ValueError, match=error):
                    trainer.LexicalTable(*table_arrays(entries), (), 0)
                return
        table = trainer.LexicalTable(*table_arrays(entries), (-1.0,), 0)
        assert table.argmax == argmax_as_searched_before(entries)
        assert hexed(table.entries) == hexed(entries)


# Far above any corpus built here: one block holds every sentence.
ONE_BLOCK = 2**40


def em_run(corpus, indices, iterations, block_rows):
    """The index arrays, and per view of ``indices`` the table or its error,
    with ``trainer.EM_BLOCK_ROWS`` set to ``block_rows``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "EM_BLOCK_ROWS", block_rows)
        index = trainer.Model1Corpus(corpus)
        # One partition: consecutive, non-empty sentence ranges from 0 to
        # len(index), each of at most block_rows rows unless it is one pair.
        bounds = [0] + [hi for _, hi in index.blocks]
        assert index.blocks == list(zip(bounds, bounds[1:]))
        assert bounds[-1] == len(index) and all(lo < hi for lo, hi in index.blocks)
        assert all(
            hi - lo == 1 or index.pair_rows[lo:hi].sum() <= block_rows
            for lo, hi in index.blocks
        )
        tables = []
        for view in indices:
            try:
                table = trainer.train_model1(index.subset(view), iterations)
            except ValueError as exc:
                tables.append(str(exc))
            else:
                tables.append(
                    (hexed(table.entries), table.argmax, table.log_likelihoods,
                     table.skipped_pairs)
                )
    arrays = [(a.dtype, a.tolist()) for a in (index.cell, index.cell_src, index.cell_tgt)]
    return arrays, tables


def long_sentences(n_pairs, words, seed):
    """``n_pairs`` pairs of 30- to 40-word sentences over ``words`` words."""
    rnd = random.Random(seed)
    vocab = [f"w{i}" for i in range(words)]

    def sentence():
        return " ".join(rnd.choice(vocab) for _ in range(rnd.randint(30, 40)))

    return [(sentence(), sentence()) for _ in range(n_pairs)]


class TestBlocks:
    """The index build and EM go through a corpus in blocks of whole
    sentences; the block size must change no bit of any result."""

    @settings(max_examples=200, deadline=None)
    @given(
        corpus=corpora,
        keep=st.lists(st.booleans(), min_size=5, max_size=5),
        iterations=st.integers(min_value=1, max_value=3),
        block_rows=st.sampled_from([1, 2, 5, 11]),
    )
    # A sentence of 4 x 3 = 12 rows, longer than any block drawn, between
    # pairs with an empty side.
    @example(
        corpus=[("", "x"), ("a b c", "x y z"), ("c", ""), ("a", "x")],
        keep=[False, True, True, True, False], iterations=3, block_rows=5,
    )
    def test_blocked_and_unblocked_runs_agree(self, corpus, keep, iterations, block_rows):
        # Two views: every pair, whose blocks are read unmasked, and the kept
        # pairs, which are masked block by block.
        views = [range(len(corpus)), [i for i in range(len(corpus)) if keep[i]]]
        blocked = em_run(corpus, views, iterations, block_rows)
        assert blocked == em_run(corpus, views, iterations, ONE_BLOCK)
        if not any(s.split() and t.split() for s, t in corpus):
            assert blocked[1] == ["no usable training pairs (empty corpus)"] * 2

    def test_memory_stays_with_the_block(self):
        # 300 pairs of 30- to 40-word sentences: about 380,000 EM rows and
        # at most 51 x 50 cells. In blocks of 2**14 rows the build holds
        # the kept index (4 bytes a row for cell), each block's keys and
        # the blocks' distinct keys, and training holds a block, the
        # cell-sized arrays and two per target token: under 12 and 2 bytes
        # a row. In one block both
        # hold several row-length arrays at once.
        corpus = long_sentences(300, 50, seed=7)
        peaks = {}
        for block_rows in (2**14, ONE_BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(trainer, "EM_BLOCK_ROWS", block_rows)
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    index = trainer.Model1Corpus(corpus)
                    kept, build = tracemalloc.get_traced_memory()
                    tracemalloc.reset_peak()
                    for view in (range(300), range(0, 300, 2)):
                        trainer.train_model1(index.subset(view), 2)
                    train = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            rows = int(index.pair_rows.sum())
            peaks[block_rows] = ((build - start) / rows, (train - kept) / rows)
        assert rows > 300_000
        (build, train), (one_build, one_train) = peaks[2**14], peaks[ONE_BLOCK]
        assert build < 12 and train < 2, peaks
        assert build < one_build and train < one_train, peaks

    def test_a_view_trains_in_the_blocks_of_its_index(self):
        # The block size is the index's: an index built in blocks of 2**14
        # rows trains in them, whatever EM_BLOCK_ROWS holds when a view
        # trains, so training stays under 2 bytes a row above the index.
        corpus = long_sentences(300, 50, seed=7)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer, "EM_BLOCK_ROWS", 2**14)
            index = trainer.Model1Corpus(corpus)
            patch.setattr(trainer, "EM_BLOCK_ROWS", ONE_BLOCK)
            tracemalloc.start()  # after the build: the kept index is not traced
            try:
                for view in (range(300), range(0, 300, 2)):
                    trainer.train_model1(index.subset(view), 2)
                train = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        rows = int(index.pair_rows.sum())
        assert rows > 300_000
        assert train / rows < 2, train / rows


class TestDecode:
    def test_argmax_lookup(self):
        table = trainer.train_model1([("a", "x")], iterations=1)
        assert trainer.decode(table, "a a") == "x x"

    def test_unknown_token_passes_through(self):
        table = trainer.train_model1([("a", "x")], iterations=1)
        assert trainer.decode(table, "zzz") == "zzz"
        assert trainer.decode(table, "a zzz a") == "x zzz x"

    def test_lexicographic_tie_break(self):
        table = trainer.train_model1([("a", "x w")], iterations=3)
        assert table.entries["a"] == {"x": 0.5, "w": 0.5}
        assert trainer.decode(table, "a") == "w"

    def test_tie_on_trained_table(self):
        table = trainer.train_model1([("a b", "x y")], iterations=3)
        assert table.entries["a"]["x"] == table.entries["a"]["y"]
        assert trainer.decode(table, "a b") == "x x"

    def test_order_preserved_and_deterministic(self):
        table = trainer.train_model1(
            [("a b c", "x y z"), ("b c", "y z"), ("c", "z")], iterations=10
        )
        first = trainer.decode(table, "c b a")
        assert first == trainer.decode(table, "c b a")
        assert len(first.split()) == 3

    def test_empty_sentence(self):
        table = trainer.train_model1([("a", "x")], iterations=1)
        assert trainer.decode(table, "") == ""

    def test_null_token_passes_through(self):
        # NULL generates target words, but no sentence translates it.
        table = trainer.train_model1([("a", "x"), ("a", "x")], 5)
        assert trainer.decode(table, "<NULL> a b") == "<NULL> x b"


class TestLearningSignal:
    def test_bleu_increases_with_training_size(self):
        # On a pure word-substitution cipher with a Zipf vocabulary, more
        # training data means more of the lexicon is learned, so test BLEU
        # averaged over 5 seeds must rise across the whole fraction grid.
        def corpus(n, seed):
            rng = SplitMix64(derive_seed(seed, "mini"))
            vocab_size, exponent = 1200, 1.1
            vocab = [f"v{i:04d}" for i in range(vocab_size)]
            cum, total = [], 0.0
            for i in range(vocab_size):
                total += 1.0 / (i + 1) ** exponent
                cum.append(total)
            pairs = []
            for _ in range(n):
                length = 4 + rng.next_below(6)
                src = [
                    vocab[bisect.bisect_left(cum, rng.next_float() * total)]
                    for _ in range(length)
                ]
                pairs.append((" ".join(src), " ".join("x" + w for w in src)))
            return pairs

        curves = []
        for seed in range(5):
            train = corpus(400, seed)
            test = corpus(120, seed + 1000)
            test_src = [s for s, _ in test]
            test_tgt = [t for _, t in test]
            scores = []
            for fraction in sampling.FRACTION_GRID:
                subset = sampling.subsample(len(train), [fraction], derive_seed(seed, "sub"))[0]
                table = trainer.train_model1([train[i] for i in subset.indices], 3)
                hyps = [trainer.decode(table, s) for s in test_src]
                scores.append(bleu.corpus_bleu(hyps, test_tgt).score)
            curves.append(scores)
        mean = [sum(col) / len(col) for col in zip(*curves)]
        for lo, hi in zip(mean, mean[1:]):
            assert hi > lo, f"mean curve not strictly increasing: {mean}"


class TestTrainerSpec:
    def test_builtin_defaults(self):
        spec = trainer.TrainerSpec(kind="builtin-em")
        assert spec.em_iterations == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            trainer.TrainerSpec(kind="neural")

    def test_builtin_iterations_validated(self):
        with pytest.raises(ValueError):
            trainer.TrainerSpec(kind="builtin-em", em_iterations=0)

    @pytest.mark.parametrize(
        "timeout",
        [0, -5, math.nan, math.inf, "600", True, None, pytest.param(10**400, id="10**400")],
    )
    def test_timeout_must_be_a_finite_number_above_zero(self, timeout):
        with pytest.raises(ValueError, match="timeout must be a finite number"):
            trainer.TrainerSpec(
                kind="external", command_template="go {train} {test_src} {hyp_out}", timeout=timeout
            )
        assert trainer.TrainerSpec(kind="builtin-em", timeout=0.5).timeout == 0.5

    def test_external_requires_placeholders(self):
        with pytest.raises(ValueError, match="hyp_out"):
            trainer.TrainerSpec(kind="external", command_template="train {train} {test_src}")
        spec = trainer.TrainerSpec(
            kind="external", command_template="go {train} {test_src} {hyp_out}"
        )
        assert spec.kind == "external"

    @pytest.mark.parametrize(
        "template, problem",
        [
            ("awk '{print $0}' {test_src} > {hyp_out} # {train}", "placeholder {print $0}"),
            ("go {{train}} {test_src} {hyp_out}", "must contain {train}"),
            ("go {train} {test_src} {hyp_out} {out}", "placeholder {out}"),
            ("go {} {train} {test_src} {hyp_out}", "placeholder {}"),
            ("go {train!r} {test_src} {hyp_out}", "placeholder {train!r}"),
            ("go {train:>9} {test_src} {hyp_out}", "placeholder {train:>9}"),
            ("go {train[0]} {test_src} {hyp_out}", "placeholder {train[0]}"),
            ("go {train {test_src} {hyp_out}", "unexpected '{'"),
            ("go } {train} {test_src} {hyp_out}", "Single '}'"),
            ("go {train} {test_src} {hyp_out} {", "Single '{'"),
        ],
    )
    def test_template_placeholders_are_checked(self, template, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            trainer.TrainerSpec(kind="external", command_template=template)

    def test_doubled_braces_and_workdir_are_accepted(self):
        template = "awk '{{print $0}}' {test_src} > {hyp_out} # {train} {workdir}"
        assert trainer.TrainerSpec(kind="external", command_template=template)


class TestRunExternal:
    def make_files(self, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text("a\tx\nb\ty\n", encoding="utf-8")
        test_src = tmp_path / "test.src"
        test_src.write_text("a\nb\nc\n", encoding="utf-8")
        return train, test_src, tmp_path / "hyp.txt"

    def spec(self, command, **kwargs):
        return trainer.TrainerSpec(kind="external", command_template=command, **kwargs)

    def test_copy_adapter_identity(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec("cp {test_src} {hyp_out} # {train}")
        result = trainer.run_external(spec, str(train), str(test_src), str(hyp))
        assert result == ["a", "b", "c"]

    def test_nonzero_exit_carries_diagnostics(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec("echo boom >&2; false # {train} {test_src} {hyp_out}")
        with pytest.raises(trainer.ExternalTrainerError, match="boom"):
            trainer.run_external(spec, str(train), str(test_src), str(hyp))

    def test_a_failed_command_keeps_the_tail_of_its_output(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec(
            "head -c 20000 /dev/zero | tr '\\0' x; echo end; echo oops >&2; exit 1"
            " # {train} {test_src} {hyp_out}"
        )
        with pytest.raises(trainer.ExternalTrainerError) as raised:
            trainer.run_external(spec, str(train), str(test_src), str(hyp))
        tail = "x" * (trainer.OUTPUT_TAIL - 4) + "end\n"  # of 20,004 bytes
        cut = 20_004 - trainer.OUTPUT_TAIL
        assert str(raised.value).endswith(
            f"stdout:\n[{cut} earlier bytes cut]\n{tail}\nstderr:\noops\n"
        )

    def test_missized_output_rejected(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec("head -n 2 {test_src} > {hyp_out} # {train}")
        with pytest.raises(trainer.ExternalTrainerError, match="2 lines"):
            trainer.run_external(spec, str(train), str(test_src), str(hyp))

    def test_missing_output_rejected(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec("true # {train} {test_src} {hyp_out}")
        with pytest.raises(trainer.ExternalTrainerError, match="no hypothesis file"):
            trainer.run_external(spec, str(train), str(test_src), str(hyp))

    @pytest.mark.parametrize("left", ["file", "symlink"])
    def test_a_file_left_at_hyp_out_is_not_taken_for_the_output(self, tmp_path, left):
        train, test_src, hyp = self.make_files(tmp_path)
        if left == "file":  # an earlier run's, right-sized
            hyp.write_text("a\nb\nc\n", encoding="utf-8")
        else:
            hyp.symlink_to(test_src)
        spec = self.spec("true {train} {test_src} {hyp_out}")
        with pytest.raises(trainer.ExternalTrainerError, match="no hypothesis file"):
            trainer.run_external(spec, str(train), str(test_src), str(hyp))
        assert not hyp.is_symlink() and not hyp.exists()
        assert test_src.read_text(encoding="utf-8") == "a\nb\nc\n"

    @pytest.mark.parametrize("at", ["directory", "path under a file"])
    def test_a_hyp_out_that_cannot_be_a_file_fails_the_job(self, tmp_path, at):
        train, test_src, hyp = self.make_files(tmp_path)
        if at == "directory":
            hyp.mkdir()
        else:
            hyp = train / "hyp.txt"
        spec = self.spec("true {train} {test_src} {hyp_out}")
        with pytest.raises(trainer.ExternalTrainerError, match="no hypothesis file"):
            trainer.run_external(spec, str(train), str(test_src), str(hyp))
        assert hyp.is_dir() if at == "directory" else train.is_file()

    def test_timeout(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec("sleep 5 # {train} {test_src} {hyp_out}", timeout=0.2)
        with pytest.raises(trainer.ExternalTrainerError, match="timed out"):
            trainer.run_external(spec, str(train), str(test_src), str(hyp))

    @pytest.mark.parametrize("timeout", [2.2e6, 2592000, 1e10, 1e300])
    def test_a_timeout_of_any_length_is_waited_out(self, tmp_path, timeout):
        # epoll takes its wait as an int of milliseconds, which a wait of
        # more than about 24.8 days would overflow.
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec("sleep 0.05; cp {test_src} {hyp_out} # {train}", timeout=timeout)
        result = trainer.run_external(spec, str(train), str(test_src), str(hyp))
        assert result == ["a", "b", "c"]

    def test_paths_are_shell_quoted(self, tmp_path):
        # A space would split a path into two words, and a ";" would end
        # the command and start another one.
        odd = tmp_path / "two words;touch injected"
        odd.mkdir()
        train, test_src, hyp = self.make_files(odd)
        spec = self.spec(
            "cat {train} > /dev/null && cp {test_src} {hyp_out}", workdir=str(tmp_path)
        )
        result = trainer.run_external(spec, str(train), str(test_src), str(hyp))
        assert result == ["a", "b", "c"]
        assert not (tmp_path / "injected").exists()

    def test_timeout_kills_the_commands_children(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec(
            "sleep 60 > /dev/null 2>&1 & echo $! > child.pid; wait"
            " # {train} {test_src} {hyp_out}",
            workdir=str(tmp_path),
            timeout=1.0,
        )
        with pytest.raises(trainer.ExternalTrainerError, match="timed out"):
            trainer.run_external(spec, str(train), str(test_src), str(hyp))
        child = int((tmp_path / "child.pid").read_text())
        deadline = time.monotonic() + 10.0
        while process_running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not process_running(child)

    def test_requires_external_kind(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        with pytest.raises(ValueError, match="external"):
            trainer.run_external(
                trainer.TrainerSpec(kind="builtin-em"), str(train), str(test_src), str(hyp)
            )



class TestExternalJobs:
    make_files = TestRunExternal.make_files
    spec = TestRunExternal.spec

    def test_a_command_that_closes_its_pipes_holds_up_no_other(self, tmp_path):
        # The first command sends its output to a file and runs on, with the
        # default timeout. Meanwhile the second writes 1 MB to stdout, more
        # than a pipe holds, and ends; the third hits its 0.5 s timeout.
        train, test_src, hyp = self.make_files(tmp_path)
        quiet = self.spec(
            "echo $$ > quiet.pid; exec sleep 20 > quiet.log 2>&1 # {train} {test_src} {hyp_out}",
            workdir=str(tmp_path),
        )
        loud = self.spec("head -c 1000000 /dev/zero; cp {test_src} {hyp_out} # {train}")
        slow = self.spec("sleep 20 # {train} {test_src} {hyp_out}", timeout=0.5)
        started = time.monotonic()
        with trainer.ExternalJobs() as jobs:
            quiet_job = jobs.launch(quiet, str(train), str(test_src), str(tmp_path / "q.txt"))
            loud_job = jobs.launch(loud, str(train), str(test_src), str(hyp))
            slow_job = jobs.launch(slow, str(train), str(test_src), str(tmp_path / "s.txt"))
            while not (loud_job.ended and slow_job.ended):
                jobs.wait()
            assert time.monotonic() - started < 5.0
            assert not quiet_job.ended
            assert loud_job.hypotheses(3) == ["a", "b", "c"]
            # Only the tail of its output is kept.
            assert len(loud_job.output[loud_job.proc.stdout]) == trainer.OUTPUT_TAIL
            assert loud_job.cut[loud_job.proc.stdout] == 1_000_000 - trainer.OUTPUT_TAIL
            with pytest.raises(trainer.ExternalTrainerError, match="timed out after 0.5s"):
                slow_job.hypotheses(3)
        # Leaving the block killed and reaped the first command.
        assert quiet_job.proc.returncode == -signal.SIGKILL
        assert not process_running(int((tmp_path / "quiet.pid").read_text()))
        assert time.monotonic() - started < 5.0

    def test_leaving_the_block_reaps_a_command_with_a_long_timeout(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec("exec sleep 20 # {train} {test_src} {hyp_out}", timeout=1e10)
        with pytest.raises(KeyboardInterrupt):
            with trainer.ExternalJobs() as jobs:
                job = jobs.launch(spec, str(train), str(test_src), str(hyp))
                raise KeyboardInterrupt
        assert job.proc.returncode == -signal.SIGKILL


def test_sigint_deferred_off_the_main_thread_leaves_the_handler():
    # Only the main thread runs signal handlers, so there is none to swap.
    before = signal.getsignal(signal.SIGINT)
    seen = []

    def block():
        with trainer.sigint_deferred():
            seen.append(signal.getsignal(signal.SIGINT))

    thread = threading.Thread(target=block)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [before]
    assert signal.getsignal(signal.SIGINT) is before


def process_running(pid):
    """Whether ``pid`` names a live process; a zombie has finished running."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # an orphan's zombie lingers where nothing reaps it
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:  # gone since the probe, or a system without /proc
        return not Path("/proc").is_dir()


def modules_after_import(module):
    """The names of the modules a fresh interpreter holds after ``import module``."""
    src = str(Path(mtlearn.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import {module}; "
        "print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_import_loads_neither_numpy_nor_urllib_request():
    # numpy is imported by the builtin trainer when it first trains, so
    # external-trainer and resume runs never pay its memory. The command
    # imports every module that a run or a report uses.
    loaded = modules_after_import("mtlearn.cli")
    assert {"mtlearn.pipeline", "mtlearn.trainer", "mtlearn.charts"} <= loaded
    assert {"numpy", "urllib.request"} & loaded == set()


def test_a_module_is_imported_without_the_rest_of_the_package():
    def package_modules(module):
        return {m for m in modules_after_import(module) if m.split(".")[0] == "mtlearn"}

    assert package_modules("mtlearn") == {"mtlearn"}
    assert package_modules("mtlearn.bleu") == {"mtlearn", "mtlearn.bleu"}


def test_the_bundle_does_not_depend_on_numpys_simd_dispatch(tmp_path):
    # EM's reductions must give the same floats, and so the same bundle,
    # whichever of numpy's SIMD kernels run them. numpy ignores the names of
    # targets it does not dispatch to on this CPU.
    src = str(Path(mtlearn.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from mtlearn import cli, synthetic; "
        "info = synthetic.write_family(sys.argv[1], n_sentences=600); "
        "sys.exit(cli.main(['run', '--manifest', str(info['manifest_path'])]))"
    )
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    bundles = []
    for name, extra in (
        ("plain", {}),
        ("no-simd", {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}),
    ):
        subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / name)],
            env={**env, **extra}, capture_output=True, check=True, timeout=300,
        )
        out = tmp_path / name / "out"
        bundles.append({
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "ledger.json"
        })
    assert "hyps/aa-bb/1.0.txt" in bundles[0] and "summary.json" in bundles[0]
    assert bundles[0] == bundles[1]
