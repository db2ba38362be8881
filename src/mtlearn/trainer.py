"""Translation models for training subsets.

Two trainers share one contract. The built-in trainer is IBM Model 1 with
EM and a NULL source token; decoding is per-token argmax over the learned
lexical table, which is crude but deterministic and shows genuine
data-scaling behavior. A `Model1Corpus` indexes one training set once
(tokens, EM rows, co-occurrence cells), and `train_model1` trains on any
subset of it, so the nested fractions of a learning curve share one index.
The index is built in blocks of whole sentences of at most `EM_BLOCK_ROWS`
rows and keeps that one partition, and every view trains in its blocks, so
above the kept index the row-length arrays are one block's, not the
corpus's, and the floats are the same for any block size.
A trained `LexicalTable` keeps EM's arrays: its sum check and argmax are
computed from them, and its `entries` dicts are built only when read.
The external adapter runs an arbitrary command with file-path
placeholders so a real NMT stack can be plugged into the same pipeline.
`ExternalJobs` runs several such commands side by side from one thread,
draining their pipes with one selector and killing each at its timeout;
`run_external` is its one-command case.
"""

from __future__ import annotations

import contextlib
import functools
import os
import selectors
import shlex
import signal
import subprocess
import threading
import time
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

# string.Formatter().parse is this function; importing `string` itself
# compiles string.Template's pattern, about 0.36 MB of a run's peak RSS.
from _string import formatter_parser

from .corpus import read_lines

if TYPE_CHECKING:
    import numpy as np

NULL_TOKEN = "<NULL>"

DEFAULT_EXTERNAL_TIMEOUT = 86400.0  # seconds; external systems may train for hours
OUTPUT_TAIL = 8192  # bytes of each of a command's output streams kept for its error
# The longest one selector wait, in seconds: epoll takes its wait as an int
# of milliseconds, which overflows past about 24.8 days. A wait that ends
# short of a deadline just waits again.
_MAX_WAIT = 3600.0
# An external command template's placeholders; the first three are required.
_PLACEHOLDERS = ("train", "test_src", "hyp_out", "workdir")
# The most EM rows that the index build and each EM iteration hold at once,
# in blocks of whole sentences (a longer sentence is a block of its own), so
# their memory above the kept index does not grow with the corpus. It is read
# when an index is built; every view of that index trains in its blocks.
EM_BLOCK_ROWS = 2**15


class ExternalTrainerError(RuntimeError):
    """An external trainer command failed; carries captured diagnostics."""


class LexicalTable:
    """Lexical translation probabilities t(tgt | src) from IBM Model 1.

    entries maps each source token (including NULL_TOKEN) to a distribution
    over target tokens. Every inner distribution sums to 1 within 1e-9.
    log_likelihoods[k] is the training-corpus log-likelihood under the
    parameters entering EM iteration k, so the sequence is non-decreasing.
    skipped_pairs counts training pairs dropped because one side was empty.
    argmax maps each source token but NULL_TOKEN to its most probable
    target token, ties broken lexicographically (smallest target token in
    code-point order wins), so decoding does no search. NULL generates
    target words, but no sentence translates it. The spelling ``<NULL>``
    is reserved: a source word spelled so is trained as NULL, and `decode`
    passes it through.

    A table holds its distributions as flat arrays, one cell per (source,
    target) in entries order; `train_model1` makes tables from its EM
    arrays. A cell's target is an integer id into a list of words in
    code-point order, so the id is also the word's tie-break rank. The sum
    check and argmax are computed from those arrays when the table is
    made, and entries is built from them on first read: decoding reads
    only argmax.
    """

    def __init__(
        self,
        sources: list[str],
        lengths: np.ndarray,
        words: list[str],
        targets: np.ndarray,
        probs: np.ndarray,
        log_likelihoods: tuple[float, ...],
        skipped_pairs: int,
    ) -> None:
        """Check and keep one table's arrays.

        Source i owns the next lengths[i] cells; cell c has target word
        words[targets[c]] and probability probs[c]. words is in code-point
        order and a source's cells have distinct targets.
        """
        import numpy as np

        empty = np.flatnonzero(lengths == 0)
        if len(empty):
            raise ValueError(f"empty distribution for source token {sources[empty[0]]!r}")
        starts = np.cumsum(lengths) - lengths
        totals = np.add.reduceat(probs, starts)
        bad = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-9))  # NaN is bad too
        if len(bad):
            i = bad[0]
            raise ValueError(
                f"distribution for {sources[i]!r} sums to {float(totals[i])!r}, not 1"
            )
        # A source's argmax is the smallest id among its cells that reach its
        # maximum, which is the (-p, token) order.
        top = np.repeat(np.maximum.reduceat(probs, starts), lengths)
        best = np.minimum.reduceat(
            np.where(probs == top, targets, np.iinfo(targets.dtype).max), starts
        )
        self.argmax: dict[str, str] = dict(zip(sources, map(words.__getitem__, best.tolist())))
        self.argmax.pop(NULL_TOKEN, None)
        self.log_likelihoods = log_likelihoods
        self.skipped_pairs = skipped_pairs
        self._sources = sources
        self._lengths = lengths
        self._words = words
        self._targets = targets
        self._probs = probs

    @functools.cached_property
    def entries(self) -> dict[str, dict[str, float]]:
        """Each source token's distribution, built from the arrays on first read."""
        targets = list(map(self._words.__getitem__, self._targets.tolist()))
        probs = self._probs.tolist()
        entries: dict[str, dict[str, float]] = {}
        lo = 0
        for src, hi in zip(self._sources, self._lengths.cumsum().tolist()):
            entries[src] = dict(zip(targets[lo:hi], probs[lo:hi]))
            lo = hi
        return entries

    def __repr__(self) -> str:
        return (
            f"<LexicalTable entries={self.entries!r} "
            f"log_likelihoods={self.log_likelihoods!r} skipped_pairs={self.skipped_pairs!r}>"
        )


@dataclass(frozen=True)
class TrainerSpec:
    """How to obtain hypotheses for one training subset.

    kind is "builtin-em" (the default; uses em_iterations) or "external" (uses
    command_template, which must contain the placeholders {train},
    {test_src} and {hyp_out}; {workdir} is substituted when present).
    Placeholders become shell-quoted paths, so templates leave them bare,
    and a literal brace is written twice ("{{" or "}}"). Any other
    placeholder, or an unbalanced brace, is a ValueError.
    timeout is the seconds an external command may run before it is
    killed, a finite number above 0.
    """

    kind: str = "builtin-em"
    em_iterations: int = 5
    command_template: str = ""
    workdir: str = "."
    timeout: float = DEFAULT_EXTERNAL_TIMEOUT

    def __post_init__(self) -> None:
        if self.kind not in ("builtin-em", "external"):
            raise ValueError(f"unknown trainer kind: {self.kind!r}")
        if self.kind == "builtin-em" and self.em_iterations < 1:
            raise ValueError("em_iterations must be >= 1")
        timeout = self.timeout
        finite = isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
        try:  # float() of an int past float's range raises OverflowError
            finite = finite and 0 < float(timeout) < float("inf")
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"timeout must be a finite number of seconds > 0, not {timeout!r}")
        if self.kind == "external":
            try:
                # Each placeholder as written between its braces.
                placeholders = [
                    name + (f"!{conversion}" if conversion else "") + (f":{spec}" if spec else "")
                    for _, name, spec, conversion in formatter_parser(self.command_template)
                    if name is not None
                ]
            except ValueError as exc:
                raise ValueError(
                    f"external command_template {self.command_template!r}: {exc} "
                    "(write a literal brace twice)"
                ) from None
            for placeholder in placeholders:
                if placeholder not in _PLACEHOLDERS:
                    raise ValueError(
                        f"external command_template has the placeholder {{{placeholder}}}; "
                        "the placeholders are {train}, {test_src}, {hyp_out} and "
                        "{workdir}, and a literal brace is written twice"
                    )
            for placeholder in _PLACEHOLDERS[:3]:
                if placeholder not in placeholders:
                    raise ValueError(
                        f"external command_template must contain {{{placeholder}}}"
                    )


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """The start of each of consecutive runs of ``lengths``, from 0, then the
    end of the last: len(lengths) + 1 int64 offsets."""
    import numpy as np

    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _first(keys: np.ndarray) -> np.ndarray:
    """Flags for the first of each run of equal values in sorted ``keys``."""
    import numpy as np

    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _blocks(rows: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive sentence ranges [lo, hi) of whole sentences, in order.

    rows[k] is sentence k's number of EM rows. A range holds at most
    `EM_BLOCK_ROWS` rows unless it is one sentence with more, and at
    least one sentence; every sentence is in one range.
    """
    import numpy as np

    ends = np.cumsum(rows, dtype=np.int64)
    blocks = []
    lo = 0
    while lo < len(ends):
        start = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, start + EM_BLOCK_ROWS, side="right")), lo + 1)
        blocks.append((lo, hi))
        lo = hi
    return blocks


class Model1Corpus:
    """One training set, tokenized, interned and expanded once for EM.

    Sentences are whitespace-tokenized and interned into int32 arrays (a
    pair with an empty side is kept, with no tokens, and counted as
    skipped when trained on). Target ids are numbered in code-point order,
    so tgt_words is the sorted target vocabulary and a target's id is also
    its rank for the argmax tie-break. The EM rows, one per (target token,
    source position) of each sentence, NULL included, are laid out once in
    the order that `train_model1` fixes, and the co-occurring (source,
    target) cells are sorted once by source id, then target id. Each row
    fact is stored once: cell is the one row-length array, and row r's
    source and target ids are cell_src and cell_tgt at cell[r]. The rows
    are built and their cells numbered in blocks of whole sentences of at
    most `EM_BLOCK_ROWS` rows, so the build holds cell, one block's sort
    keys and each block's distinct keys, not several row-length arrays;
    the arrays are the same for any block size. The index keeps that one
    partition: blocks lists its [lo, hi) pair ranges, and pair k's rows
    are [row_at[k], row_at[k + 1]); every view trains in these blocks.
    `subset` selects the training pairs of one fraction; the learning
    curve's nested fractions of a pair thus share one index instead of
    re-tokenizing the same sentences for each one.
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
        self.tgt_words = sorted(tgt_ids)  # code-point order
        rank = np.empty(len(tgt_ids), dtype=np.int32)
        rank[[tgt_ids[t] for t in self.tgt_words]] = np.arange(len(tgt_ids), dtype=np.int32)
        self.src_len = np.frombuffer(src_lens, dtype=np.int32)
        self.tgt_len = np.frombuffer(tgt_lens, dtype=np.int32)
        self.pair_rows = self.src_len * self.tgt_len

        # Cells are the co-occurring (source, target) pairs, sorted by source
        # id, and cell[r] is row r's cell: the distinct sort keys and each
        # row's rank among them, found a block of whole sentences at a time,
        # because row-length transients would set the peak memory. Each
        # block sorts its own keys and writes block-local cell ids; the
        # blocks' distinct keys are then merged, and each block's ids are
        # renumbered through the merged keys. A row's source id is
        # cell_src[cell[r]], so the index keeps no source-row array.
        n_tgt = len(tgt_ids) or 1  # a corpus without usable pairs has no rows
        src_flat = np.frombuffer(src_flat, dtype=np.int32)
        tgt_flat = np.frombuffer(tgt_flat, dtype=np.int32)
        row_at = self.row_at = _offsets(self.pair_rows)
        src_at = _offsets(self.src_len)
        tgt_at = _offsets(self.tgt_len)
        self.cell = np.empty(row_at[-1], dtype=np.int32)
        self.blocks = _blocks(self.pair_rows)
        distinct = []  # each block's distinct keys
        for lo, hi in self.blocks:
            src_len = self.src_len[lo:hi]
            tgt_len = self.tgt_len[lo:hi]
            # Target token g of the block owns the width[g] consecutive rows
            # from row_start[g], one per source position of its sentence, and
            # row r reads the block's source token at[r].
            width = np.repeat(src_len, tgt_len)
            row_start = np.cumsum(width) - width
            at = np.repeat(np.repeat(_offsets(src_len)[:-1], tgt_len) - row_start, width)
            at += np.arange(len(at))
            key = src_flat[src_at[lo] : src_at[hi]][at].astype(np.int64)
            del at
            key *= n_tgt
            key += np.repeat(rank[tgt_flat[tgt_at[lo] : tgt_at[hi]]], width)
            order = key.argsort()
            key = key[order]
            first = _first(key)
            self.cell[row_at[lo] : row_at[hi]][order] = np.cumsum(first, dtype=np.int32) - 1
            distinct.append(key[first])
        del rank
        keys = np.concatenate(distinct or [np.empty(0, np.int64)])
        keys.sort()
        cells = keys[_first(keys)]
        del keys
        for (lo, hi), block_keys in zip(self.blocks, distinct):
            ids = self.cell[row_at[lo] : row_at[hi]]
            ids[:] = np.take(np.searchsorted(cells, block_keys), ids, mode="clip")
        self.cell_src = (cells // n_tgt).astype(np.int32)
        self.cell_tgt = (cells % n_tgt).astype(np.int32)  # an index into tgt_words

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
    position, then source position. Each iteration walks the blocks its
    index was built in (`Model1Corpus.blocks`: whole sentences of at most
    `EM_BLOCK_ROWS` rows at build time, a longer sentence a block of its
    own) and skips a block that holds none of the view's pairs, so what it
    holds above the index is one block's arrays, a few arrays per cell and
    two per target token (its number of rows and its log|src|, made once),
    not arrays per row of the training set. Every view trains in its
    corpus's own cell numbering: it marks the cells its rows use, block by
    block, and counts into arrays over all of the corpus's cells, where a
    cell it does not use stays at 0. A block whose rows are all the view's
    reads the corpus's cell array as is; any other block selects the
    view's rows with a sentence mask, which keeps their order. A row's
    source id is its cell's.

    Every sum has one fixed order, whatever the blocks: a target token's
    denominator runs over its source positions (np.bincount adds its
    weights in input order, and a token's rows are in one block), counts
    and per-source totals run over the training set in row order (np.add.at
    adds into the running arrays in input order, block after block), and
    the log-likelihood adds the per-token terms in token order (np.cumsum
    of each block's terms, led by the sum so far). So a view, the list of
    its pairs and any block size get the same floats. Totals are summed
    from the rows rather than from the cell counts, because regrouping a
    float sum changes its last bits and with them the argmax ties that
    decoding breaks. The table's cells keep the corpus's target ids, which
    are code-point ranks into its tgt_words, so the argmax tie-break
    compares integers.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    import numpy as np

    if not isinstance(train_pairs, Model1Subset):
        whole = Model1Corpus(train_pairs)
        train_pairs = whole.subset(range(len(whole)))
    corpus = train_pairs.corpus
    usable = train_pairs.selected & (corpus.src_len > 0)
    n_usable = int(np.count_nonzero(usable))
    if not n_usable:
        raise ValueError("no usable training pairs (empty corpus)")
    skipped = len(train_pairs) - n_usable
    # Each of the index's blocks [lo, hi) that holds some of the view's
    # pairs, whether all of its rows are the view's, and per target token of
    # the view's pairs in it, its number of rows and its log|src|. Each
    # target token is generated by one of its sentence's source tokens (NULL
    # included) with probability t(t|s)/|src|, so log|src| is paid once per
    # target token.
    blocks = []
    for lo, hi in corpus.blocks:
        mine = usable[lo:hi]
        if mine.any():
            width = np.repeat(corpus.src_len[lo:hi][mine], corpus.tgt_len[lo:hi][mine])
            unmasked = not corpus.pair_rows[lo:hi][~mine].any()
            blocks.append((lo, hi, unmasked, width, np.log(width)))

    def cells_of(lo: int, hi: int, unmasked: bool) -> np.ndarray:
        """The corpus cell id of each of the view's rows in corpus pairs [lo, hi)."""
        cell = corpus.cell[corpus.row_at[lo] : corpus.row_at[hi]]
        return cell if unmasked else cell[np.repeat(usable[lo:hi], corpus.pair_rows[lo:hi])]

    used = np.zeros(len(corpus.cell_src), dtype=bool)
    for lo, hi, unmasked, _, _ in blocks:
        used[cells_of(lo, hi, unmasked)] = True

    n_src = len(corpus.src_words)
    # Uniform initialization over co-occurring pairs: each source token
    # starts with equal mass on every target token it appears alongside in
    # the view. A cell the view does not use starts at 0 and gets no count,
    # so it stays at 0; a source with no row in the view keeps a total of
    # 1, so its cells divide 0 by 1.
    per_src = np.bincount(corpus.cell_src[used], minlength=n_src)
    unseen = (per_src == 0).astype(np.float64)
    p = used / (per_src + unseen)[corpus.cell_src]

    log_likelihoods: list[float] = []
    for _ in range(iterations):
        counts = np.zeros(len(p))
        totals = unseen.copy()
        log_likelihood = 0.0
        for lo, hi, unmasked, width, tok_log_len in blocks:
            # Cell ids are in range by construction, so these gathers skip
            # numpy's bounds check.
            cell = cells_of(lo, hi, unmasked)
            share = np.take(p, cell, mode="clip")
            denom = np.bincount(np.repeat(np.arange(len(width)), width), weights=share)
            terms = np.log(denom)
            terms -= tok_log_len
            terms[0] += log_likelihood
            log_likelihood = float(np.cumsum(terms)[-1])
            share /= np.repeat(denom, width)  # each row's posterior share of its target token
            np.add.at(counts, cell, share)
            np.add.at(totals, np.take(corpus.cell_src, cell, mode="clip"), share)
        log_likelihoods.append(log_likelihood)
        p = np.divide(counts, totals[corpus.cell_src], out=counts)  # no new cell array

    del blocks
    present = np.flatnonzero(per_src)
    return LexicalTable(
        [corpus.src_words[s] for s in present.tolist()],
        per_src[present],
        corpus.tgt_words,
        corpus.cell_tgt[used],
        p[used],
        tuple(log_likelihoods),
        skipped,
    )


def decode(table: LexicalTable, src_sentence: str) -> str:
    """Translate one sentence by per-token argmax over the lexical table.

    Ties are broken lexicographically (smallest target token wins) so the
    output is identical across platforms and dict orderings. Tokens absent
    from the table pass through verbatim, and so does the reserved
    NULL_TOKEN spelling ``<NULL>``, which no sentence translates; word
    order is preserved.
    """
    best = table.argmax
    return " ".join([best.get(token, token) for token in src_sentence.split()])


@contextlib.contextmanager
def sigint_deferred():
    """Hold back SIGINT for the block, so the block always runs to its end.

    Python runs signal handlers in the main thread only, so there the block
    swaps in a handler that just notes a SIGINT; at its end the old handler
    is put back and a noted SIGINT is sent again, so a Ctrl-C meanwhile is
    raised as KeyboardInterrupt then. Blocking SIGINT in the thread would
    not do: a thread that does not block it, such as one of numpy's BLAS
    threads, would take a terminal's SIGINT, and the main thread would
    still raise at once. In another thread no handler runs.
    """
    previous = signal.getsignal(signal.SIGINT)
    if threading.current_thread() is not threading.main_thread() or previous is None:
        yield  # no Python handler to defer
        return
    noted = []
    signal.signal(signal.SIGINT, lambda signum, frame: noted.append(signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
        if noted:
            signal.raise_signal(signal.SIGINT)


class ExternalJob:
    """One external trainer command, started by `ExternalJobs.launch`.

    The command template's placeholders are substituted with the given
    paths, each quoted for the shell, and the command runs through the
    shell in spec.workdir with the inherited environment and its stdout
    and stderr piped. It runs in a session of its own, so `kill` reaches
    everything it started. A file or symlink at the hypothesis path is
    removed before it starts, so only what the command writes there is
    read; a directory there is left, and fails the job. Once it has
    `ended`, `hypotheses` checks how it ended and reads what it wrote,
    which must be one line for each of the test source's lines. Only the
    last `OUTPUT_TAIL` bytes of each of its output streams are kept, for
    the error of a failed command.
    """

    def __init__(
        self, spec: TrainerSpec, train_path: str, test_src_path: str, hyp_out_path: str
    ) -> None:
        if spec.kind != "external":
            raise ValueError(f"an external job requires kind 'external', got {spec.kind!r}")
        self.command = spec.command_template.format(
            train=shlex.quote(train_path),
            test_src=shlex.quote(test_src_path),
            hyp_out=shlex.quote(hyp_out_path),
            workdir=shlex.quote(spec.workdir),
        )
        self.timeout = spec.timeout
        self.hyp_out_path = hyp_out_path
        self.timed_out = False
        # A file left by an earlier run would pass for this command's output.
        with contextlib.suppress(FileNotFoundError, IsADirectoryError, NotADirectoryError):
            os.unlink(hyp_out_path)
        self.proc = subprocess.Popen(
            self.command,
            shell=True,
            cwd=spec.workdir,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.deadline = time.monotonic() + spec.timeout
        # The tail of stdout and of stderr, and how many bytes were cut.
        self.output = {self.proc.stdout: bytearray(), self.proc.stderr: bytearray()}
        self.cut = dict.fromkeys(self.output, 0)

    @property
    def ended(self) -> bool:
        """Whether `ExternalJobs.wait` has reaped the command."""
        return self.proc.returncode is not None

    def kill(self) -> None:
        """SIGKILL the command's process group, unless it has been reaped.

        The shell leads the group, so this kills what it started too.
        """
        if self.proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)

    def hypotheses(self, n_expected: int) -> list[str]:
        """The hypotheses of the ended command; ExternalTrainerError if it failed.

        It fails when it timed out or exited non-zero, or when its
        hypothesis file does not have exactly ``n_expected`` lines (lines
        as `corpus.read_lines` splits them), the test source's line count.
        A hypothesis file that is not UTF-8 raises ValueError naming it.
        """
        if self.timed_out:
            raise ExternalTrainerError(
                f"external trainer timed out after {self.timeout}s: {self.command}"
            )
        if self.proc.returncode != 0:
            stdout, stderr = (
                (f"[{self.cut[pipe]} earlier bytes cut]\n" if self.cut[pipe] else "")
                + out.decode(errors="replace")
                for pipe, out in self.output.items()
            )
            raise ExternalTrainerError(
                f"external trainer exited {self.proc.returncode}: {self.command}\n"
                f"stdout:\n{stdout}\nstderr:\n{stderr}"
            )
        try:
            hypotheses = read_lines(self.hyp_out_path)
        except OSError as exc:
            raise ExternalTrainerError(
                f"external trainer produced no hypothesis file at {self.hyp_out_path}: {exc}"
            ) from exc
        if len(hypotheses) != n_expected:
            raise ExternalTrainerError(
                f"hypothesis file {self.hyp_out_path} has {len(hypotheses)} lines, "
                f"expected {n_expected}"
            )
        return hypotheses


class ExternalJobs:
    """External trainer commands run side by side from the calling thread.

    `launch` starts a command. `wait` reads every running command's stdout
    and stderr through one selector, sleeping until output arrives or the
    earliest deadline passes, until some commands have ended, and reaps
    them. A command still running at its deadline is killed with its
    process group and ends timed out. Leaving the `with` block kills the
    commands still running and reaps them, with SIGINT deferred, so no
    child process outlives the block.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._running: list[ExternalJob] = []

    def __enter__(self) -> ExternalJobs:
        return self

    def __exit__(self, *exc_info) -> None:
        with sigint_deferred():
            for job in self._running:
                job.kill()
            while self._running:
                self.wait()
            self._selector.close()

    def launch(
        self, spec: TrainerSpec, train_path: str, test_src_path: str, hyp_out_path: str
    ) -> ExternalJob:
        """Start one command; a Ctrl-C meanwhile is raised once it is running."""
        with sigint_deferred():
            job = ExternalJob(spec, train_path, test_src_path, hyp_out_path)
            self._running.append(job)
            for pipe in job.output:
                self._selector.register(pipe, selectors.EVENT_READ, job)
        return job

    def wait(self) -> None:
        """Wait until a running command ends, then reap each that has ended.

        A command has ended when both its pipes are closed and it has
        exited. One whose pipes are closed is polled for its exit at
        intervals growing from 0.5 ms to 50 ms, so a command that sends its
        output elsewhere and runs on holds up no other command. Reaped
        commands have `ExternalJob.ended` set.
        """
        delay = 0.0005
        while self._running:
            now = time.monotonic()
            for job in self._running:
                if job.deadline <= now and not job.timed_out:
                    job.timed_out = True
                    job.kill()
            silent = [job for job in self._running if all(pipe.closed for pipe in job.output)]
            if [job for job in silent if job.proc.poll() is not None]:
                self._running = [job for job in self._running if not job.ended]
                return
            timeouts = [job.deadline - now for job in self._running if not job.timed_out]
            if silent:
                timeouts.append(delay)
                delay = min(2 * delay, 0.05)
            timeout = min(max(min(timeouts), 0.0), _MAX_WAIT) if timeouts else None
            for key, _ in self._selector.select(timeout):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    job, pipe = key.data, key.fileobj
                    out = job.output[pipe]
                    out += chunk
                    if len(out) > OUTPUT_TAIL:
                        job.cut[pipe] += len(out) - OUTPUT_TAIL
                        del out[:-OUTPUT_TAIL]
                else:
                    self._selector.unregister(key.fileobj)
                    key.fileobj.close()


def run_external(
    spec: TrainerSpec,
    train_path: str,
    test_src_path: str,
    hyp_out_path: str,
) -> list[str]:
    """Run one external trainer command and return its hypotheses.

    The one-command case of `ExternalJobs`: `ExternalJob` says how the
    command runs and what it must leave. A timeout, or an exception such
    as KeyboardInterrupt while it runs, kills it with everything it started.
    """
    with ExternalJobs() as jobs:
        job = jobs.launch(spec, train_path, test_src_path, hyp_out_path)
        jobs.wait()
    return job.hypotheses(len(read_lines(test_src_path)))
