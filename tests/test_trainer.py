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
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
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
            assert got.log_likelihoods == pytest.approx(want.log_likelihoods, abs=1e-12)
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
        with pytest.raises(ValueError, match="sums to"):
            trainer.LexicalTable(entries={"a": {"x": 0.5}}, log_likelihoods=())
        with pytest.raises(ValueError, match="empty"):
            trainer.LexicalTable(entries={"a": {}}, log_likelihoods=())


class TestDecode:
    def test_argmax_lookup(self):
        table = trainer.LexicalTable(entries={"a": {"x": 1.0}}, log_likelihoods=())
        assert trainer.decode(table, "a a") == "x x"

    def test_unknown_token_passes_through(self):
        table = trainer.LexicalTable(entries={"a": {"x": 1.0}}, log_likelihoods=())
        assert trainer.decode(table, "zzz") == "zzz"
        assert trainer.decode(table, "a zzz a") == "x zzz x"

    def test_lexicographic_tie_break(self):
        table = trainer.LexicalTable(
            entries={"a": {"x": 0.5, "w": 0.5}}, log_likelihoods=()
        )
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
        table = trainer.LexicalTable(entries={"a": {"x": 1.0}}, log_likelihoods=())
        assert trainer.decode(table, "") == ""


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
                subset = sampling.subsample(len(train), fraction, derive_seed(seed, "sub"))
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

    def test_external_requires_placeholders(self):
        with pytest.raises(ValueError, match="hyp_out"):
            trainer.TrainerSpec(kind="external", command_template="train {train} {test_src}")
        spec = trainer.TrainerSpec(
            kind="external", command_template="go {train} {test_src} {hyp_out}"
        )
        assert spec.kind == "external"


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

    def test_timeout(self, tmp_path):
        train, test_src, hyp = self.make_files(tmp_path)
        spec = self.spec("sleep 5 # {train} {test_src} {hyp_out}", timeout=0.2)
        with pytest.raises(trainer.ExternalTrainerError, match="timed out"):
            trainer.run_external(spec, str(train), str(test_src), str(hyp))

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


def test_import_loads_neither_numpy_nor_urllib_request():
    # numpy is imported by the builtin trainer when it first trains, so
    # external-trainer and resume runs never pay its memory.
    src = str(Path(mtlearn.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import mtlearn; "
        "print(sorted({'numpy', 'urllib.request'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
