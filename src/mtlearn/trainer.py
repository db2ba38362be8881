"""Translation models for training subsets.

Two trainers share one contract. The built-in trainer is IBM Model 1 with
EM and a NULL source token; decoding is per-token argmax over the learned
lexical table, which is crude but deterministic and shows genuine
data-scaling behavior. A `Model1Corpus` indexes one training set once
(tokens, EM rows, co-occurrence cells), and `train_model1` trains on any
subset of it, so the nested fractions of a learning curve share one index.
The external adapter runs an arbitrary command with file-path
placeholders so a real NMT stack can be plugged into the same pipeline.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import signal
import subprocess
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .corpus import read_lines

if TYPE_CHECKING:
    import numpy as np

NULL_TOKEN = "<NULL>"

DEFAULT_EXTERNAL_TIMEOUT = 86400.0  # seconds; external systems may train for hours


class ExternalTrainerError(RuntimeError):
    """An external trainer command failed; carries captured diagnostics."""


@dataclass(frozen=True)
class LexicalTable:
    """Lexical translation probabilities t(tgt | src) from IBM Model 1.

    entries maps each source token (including NULL_TOKEN) to a distribution
    over target tokens. Every inner distribution sums to 1 within 1e-9.
    log_likelihoods[k] is the training-corpus log-likelihood under the
    parameters entering EM iteration k, so the sequence is non-decreasing.
    skipped_pairs counts training pairs dropped because one side was empty.
    argmax maps each source token to its most probable target token, ties
    broken lexicographically (smallest target token wins); it is derived
    from entries once, so decoding does no search.
    """

    entries: dict[str, dict[str, float]]
    log_likelihoods: tuple[float, ...]
    skipped_pairs: int = 0
    argmax: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        argmax: dict[str, str] = {}
        for src, dist in self.entries.items():
            if not dist:
                raise ValueError(f"empty distribution for source token {src!r}")
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"distribution for {src!r} sums to {total!r}, not 1")
            top = max(dist.values())
            argmax[src] = min(t for t, p in dist.items() if p == top)
        object.__setattr__(self, "argmax", argmax)


@dataclass(frozen=True)
class TrainerSpec:
    """How to obtain hypotheses for one training subset.

    kind is "builtin-em" (uses em_iterations) or "external" (uses
    command_template, which must contain the placeholders {train},
    {test_src} and {hyp_out}; {workdir} is substituted when present).
    Placeholders become shell-quoted paths, so templates leave them bare.
    """

    kind: str
    em_iterations: int = 5
    command_template: str = ""
    workdir: str = "."
    timeout: float = DEFAULT_EXTERNAL_TIMEOUT

    def __post_init__(self) -> None:
        if self.kind not in ("builtin-em", "external"):
            raise ValueError(f"unknown trainer kind: {self.kind!r}")
        if self.kind == "builtin-em" and self.em_iterations < 1:
            raise ValueError("em_iterations must be >= 1")
        if self.kind == "external":
            for placeholder in ("{train}", "{test_src}", "{hyp_out}"):
                if placeholder not in self.command_template:
                    raise ValueError(
                        f"external command_template must contain {placeholder}"
                    )


class Model1Corpus:
    """One training set, tokenized, interned and expanded once for EM.

    Sentences are whitespace-tokenized and interned into int32 arrays (a
    pair with an empty side is kept, with no tokens, and counted as
    skipped when trained on). The EM rows, one per (target token, source
    position) of each sentence, NULL included, are laid out once in the
    order that `train_model1` fixes, and the co-occurring (source, target)
    cells are sorted once. `subset` selects the training pairs of one
    fraction; the learning curve's nested fractions of a pair thus share
    one index instead of re-tokenizing the same sentences for each one.
    """

    def __init__(self, train_pairs: Iterable[tuple[str, str]]) -> None:
        import numpy as np  # only this trainer needs numpy; keep it off other paths

        src_ids: dict[str, int] = {NULL_TOKEN: 0}
        tgt_ids: dict[str, int] = {}
        src_flat = array("i")  # per sentence: NULL id, then its source ids
        tgt_flat = array("i")
        src_lens = array("i")  # per pair, NULL included; 0 for a pair with an empty side
        tgt_lens = array("i")
        for src_sentence, tgt_sentence in train_pairs:
            src_tokens = src_sentence.split()
            tgt_tokens = tgt_sentence.split()
            if not src_tokens or not tgt_tokens:
                src_lens.append(0)
                tgt_lens.append(0)
                continue
            src_flat.append(0)
            src_flat.extend([src_ids.setdefault(s, len(src_ids)) for s in src_tokens])
            tgt_flat.extend([tgt_ids.setdefault(t, len(tgt_ids)) for t in tgt_tokens])
            src_lens.append(len(src_tokens) + 1)
            tgt_lens.append(len(tgt_tokens))
        self.src_words = list(src_ids)
        self.tgt_words = list(tgt_ids)
        self.src_len = np.frombuffer(src_lens, dtype=np.int32)
        self.tgt_len = np.frombuffer(tgt_lens, dtype=np.int32)
        self.pair_rows = self.src_len * self.tgt_len

        # Target token g of sentence k owns the src_len[k] consecutive rows
        # starting at row_start[g], one per source position of sentence k.
        width = np.repeat(self.src_len, self.tgt_len)
        row_start = np.cumsum(width) - width
        src_start = np.repeat(np.cumsum(self.src_len) - self.src_len, self.tgt_len)
        n_rows = int(width.sum())
        tok = np.repeat(np.arange(len(tgt_flat), dtype=np.int32), width)
        self.src_row = np.frombuffer(src_flat, dtype=np.int32)[
            np.repeat(src_start - row_start, width) + np.arange(n_rows)
        ]
        tgt_row = np.frombuffer(tgt_flat, dtype=np.int32)[tok]
        del width, row_start, src_start, tok

        # Cells are the co-occurring (source, target) pairs, sorted by source
        # id, and cell[r] is row r's cell. This is np.unique(key,
        # return_inverse=True) written out, because np.unique holds five
        # row-length int64 arrays at once and this holds three; that
        # transient sets the run's peak memory.
        n_tgt = len(tgt_ids) or 1  # a corpus without usable pairs has no rows
        key = self.src_row.astype(np.int64)
        key *= n_tgt
        key += tgt_row
        del tgt_row
        order = key.argsort()
        key = key[order]
        first = np.empty(n_rows, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        cells = key[first]
        del key
        self.cell = np.empty(n_rows, dtype=np.int32)
        self.cell[order] = np.cumsum(first, dtype=np.int32) - 1
        del order, first
        self.cell_src = cells // n_tgt
        self.cell_tgt = np.array(self.tgt_words, dtype=object)[cells % n_tgt]  # words

    def __len__(self) -> int:
        return len(self.src_len)

    def subset(self, indices: Iterable[int]) -> Model1Subset:
        """The training pairs at ``indices``, which must strictly increase."""
        import numpy as np

        idx = np.fromiter(indices, dtype=np.int64)
        if len(idx) and (idx[0] < 0 or idx[-1] >= len(self) or (np.diff(idx) <= 0).any()):
            raise ValueError(
                f"subset indices must strictly increase within [0, {len(self)})"
            )
        selected = np.zeros(len(self), dtype=bool)
        selected[idx] = True
        return Model1Subset(self, selected)


@dataclass(frozen=True, eq=False)
class Model1Subset:
    """Some of a Model1Corpus's pairs, in corpus order: one training set."""

    corpus: Model1Corpus
    selected: np.ndarray  # bool, one flag per pair of the corpus

    def __len__(self) -> int:
        return int(self.selected.sum())


def train_model1(
    train_pairs: list[tuple[str, str]] | Model1Subset, iterations: int
) -> LexicalTable:
    """Train IBM Model 1 lexical probabilities t(tgt | src) with EM.

    ``train_pairs`` is a list of (source, target) sentences or a view from
    `Model1Corpus.subset`, whose indices strictly increase; a list is
    indexed on entry, so both take the same path. Each source sentence is
    whitespace-tokenized and prepended with the NULL token; initialization
    is uniform over co-occurring token pairs. Pairs with an empty side are
    skipped (counted in skipped_pairs), and an entirely empty corpus is an
    error.

    EM runs on flat arrays with one row per (target token, source position)
    of each sentence, NULL included, ordered by sentence, then target
    position, then source position. A view selects its rows from its
    corpus's rows with a sentence mask, which keeps that order, and numbers
    only the cells and target tokens it uses. np.bincount adds its weights
    in input order, so every sum has one fixed order: a target token's
    denominator runs over its source positions, and counts and per-source
    totals run over the training set in row order. So a view and the list
    of its pairs get the same floats. Totals are summed from the rows rather
    than from the cell counts, because regrouping a float sum changes its
    last bits and with them the argmax ties that decoding breaks.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    import numpy as np

    if not isinstance(train_pairs, Model1Subset):
        whole = Model1Corpus(train_pairs)
        train_pairs = whole.subset(range(len(whole)))
    corpus = train_pairs.corpus
    usable = train_pairs.selected & (corpus.src_len > 0)
    src_len = corpus.src_len[usable]
    tgt_len = corpus.tgt_len[usable]
    if not len(src_len):
        raise ValueError("no usable training pairs (empty corpus)")
    skipped = len(train_pairs) - len(src_len)

    rows = np.repeat(usable, corpus.pair_rows)
    src_row = corpus.src_row[rows]
    cell = corpus.cell[rows]
    del rows
    used = np.zeros(len(corpus.cell_src), dtype=bool)
    used[cell] = True
    cell = (np.cumsum(used, dtype=np.int32) - 1)[cell]
    cell_src = corpus.cell_src[used]
    cell_tgt = corpus.cell_tgt[used]
    del used
    width = np.repeat(src_len, tgt_len)
    n_tok = len(width)
    tok = np.repeat(np.arange(n_tok, dtype=np.int32), width)
    del width
    # Each target token is generated by one of its sentence's source tokens
    # (NULL included) with probability t(t|s)/|src|, so log|src| is paid once
    # per target token.
    log_len = np.repeat(np.log(src_len), tgt_len)

    n_src = len(corpus.src_words)
    # Uniform initialization over co-occurring pairs: each source token
    # starts with equal mass on every target token it appears alongside.
    per_src = np.bincount(cell_src, minlength=n_src)
    p = 1.0 / per_src[cell_src]

    log_likelihoods: list[float] = []
    for _ in range(iterations):
        share = p[cell]
        denom = np.bincount(tok, weights=share, minlength=n_tok)
        terms = np.log(denom)
        terms -= log_len
        log_likelihoods.append(float(np.cumsum(terms)[-1]))  # in token order
        share /= denom[tok]  # each row's posterior share of its target token
        counts = np.bincount(cell, weights=share, minlength=len(cell_src))
        totals = np.bincount(src_row, weights=share, minlength=n_src)
        del share
        p = counts / totals[cell_src]
    del tok, src_row, cell, log_len

    targets = cell_tgt.tolist()
    probs = p.tolist()
    present = np.flatnonzero(per_src)
    ends = np.cumsum(per_src[present]).tolist()
    entries: dict[str, dict[str, float]] = {}
    lo = 0
    for s, hi in zip(present.tolist(), ends):
        entries[corpus.src_words[s]] = dict(zip(targets[lo:hi], probs[lo:hi]))
        lo = hi

    return LexicalTable(
        entries=entries,
        log_likelihoods=tuple(log_likelihoods),
        skipped_pairs=skipped,
    )


def decode(table: LexicalTable, src_sentence: str) -> str:
    """Translate one sentence by per-token argmax over the lexical table.

    Ties are broken lexicographically (smallest target token wins) so the
    output is identical across platforms and dict orderings. Tokens absent
    from the table pass through verbatim; word order is preserved.
    """
    best = table.argmax
    return " ".join([best.get(token, token) for token in src_sentence.split()])


def run_external(
    spec: TrainerSpec,
    train_path: str,
    test_src_path: str,
    hyp_out_path: str,
) -> list[str]:
    """Run an external trainer command and return its hypotheses.

    The command template's placeholders are substituted with the given
    paths, each quoted for the shell, and the command runs through the
    shell in spec.workdir with the inherited environment. It runs in a
    session of its own, so a timeout kills everything it started. The
    resulting hypothesis file must have exactly one line per test source
    line (lines as `corpus.read_lines` splits them).
    """
    if spec.kind != "external":
        raise ValueError(f"run_external requires kind 'external', got {spec.kind!r}")

    command = spec.command_template.format(
        train=shlex.quote(train_path),
        test_src=shlex.quote(test_src_path),
        hyp_out=shlex.quote(hyp_out_path),
        workdir=shlex.quote(spec.workdir),
    )
    with subprocess.Popen(
        command,
        shell=True,
        cwd=spec.workdir,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=spec.timeout)
        except BaseException as exc:  # a timeout, or the run being interrupted
            # The shell leads its own process group; kill what it started too.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ExternalTrainerError(
                    f"external trainer timed out after {spec.timeout}s: {command}"
                ) from exc
            raise
    if proc.returncode != 0:
        raise ExternalTrainerError(
            f"external trainer exited {proc.returncode}: {command}\n"
            f"stdout:\n{stdout}\nstderr:\n{stderr}"
        )

    n_expected = len(read_lines(test_src_path))
    try:
        hypotheses = read_lines(hyp_out_path)
    except OSError as exc:
        raise ExternalTrainerError(
            f"external trainer produced no hypothesis file at {hyp_out_path}: {exc}"
        ) from exc
    if len(hypotheses) != n_expected:
        raise ExternalTrainerError(
            f"hypothesis file {hyp_out_path} has {len(hypotheses)} lines, "
            f"expected {n_expected}"
        )
    return hypotheses
