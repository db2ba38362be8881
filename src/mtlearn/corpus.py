"""Parallel corpus construction by pivoting through English.

Each language arrives as a pair of line-aligned text files: one English
(pivot) file and one file in the language itself. Two languages are joined
into a parallel corpus by matching identical pivot sentences, where
"identical" means equal after whitespace collapsing and Unicode NFC
normalization (case is preserved). The joined corpus is then split into
train/dev/test with a seeded, platform-independent shuffle.
"""

from __future__ import annotations

import functools
import json
import os
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from ._rng import permutation

_LANG_RE = re.compile(r"^[a-z]{2}$")


def validate_lang(code: str) -> str:
    """Check that a language code is two ASCII lowercase letters."""
    if not isinstance(code, str) or not _LANG_RE.match(code):
        raise ValueError(f"invalid language code: {code!r} (want 2 lowercase ASCII letters)")
    return code


@dataclass
class PivotBitext:
    """One language's sentences line-aligned to English pivot sentences."""

    lang: str
    pivot_lines: list[str]
    target_lines: list[str]

    def __post_init__(self):
        validate_lang(self.lang)
        if len(self.pivot_lines) != len(self.target_lines):
            raise ValueError(
                f"pivot/target line counts differ for {self.lang}: "
                f"{len(self.pivot_lines)} vs {len(self.target_lines)}"
            )

    def __len__(self) -> int:
        return len(self.pivot_lines)

    @functools.cached_property
    def pivot_keys(self) -> list[str]:
        """`normalize_pivot` of each pivot line, computed on first use.

        A language takes part in several pairs, so its lines are normalized
        once per bitext rather than once per pair; pivot_lines must not
        change after the first join. A line that is already normal is its
        own key, so the keys that live as long as the bitext cost no second
        copy of its text.
        """
        lines = self.pivot_lines
        return [
            line if key == line else key
            for line, key in zip(lines, map(normalize_pivot, lines))
        ]


@dataclass
class ParallelPair:
    """Constructed sentence pairs for one ordered language pair.

    ``provenance[i]`` is the (line index in the source bitext, line index in
    the target bitext) of the pivot occurrence that produced ``pairs[i]``.
    """

    src: str
    tgt: str
    pairs: list[tuple[str, str]]
    provenance: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        validate_lang(self.src)
        validate_lang(self.tgt)
        if self.src == self.tgt:
            raise ValueError(f"source and target language are both {self.src!r}")
        if self.provenance and len(self.provenance) != len(self.pairs):
            raise ValueError("provenance length does not match pair count")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SplitSpec:
    """Dev and test ratios plus the shuffle seed; train gets the rest."""

    dev_ratio: float
    test_ratio: float
    seed: int

    @property
    def train_ratio(self) -> float:
        return 1.0 - self.dev_ratio - self.test_ratio

    def __post_init__(self):
        for name, r in (("dev", self.dev_ratio), ("test", self.test_ratio), ("train", self.train_ratio)):
            if not 0.0 < r < 1.0:
                raise ValueError(f"{name}_ratio must be in (0, 1), got {r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def load_pivot_bitext(pivot_path: str | Path, target_path: str | Path, lang: str) -> PivotBitext:
    """Load a (pivot file, target file) pair into a PivotBitext.

    Both files must be UTF-8 with one sentence per line and equal line
    counts. Raises ValueError on a count mismatch or a file that is not
    UTF-8 (see `read_text`); I/O errors (OSError) propagate unchanged.
    """
    validate_lang(lang)
    pivot_lines = read_lines(pivot_path)
    target_lines = read_lines(target_path)
    if len(pivot_lines) != len(target_lines):
        raise ValueError(
            f"line count mismatch: {pivot_path} has {len(pivot_lines)} lines, "
            f"{target_path} has {len(target_lines)}"
        )
    return PivotBitext(lang=lang, pivot_lines=pivot_lines, target_lines=target_lines)


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped.

    A file that is not UTF-8 raises ValueError naming it and the offset of
    its first bad byte; line ends are left as they are.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8: {exc.reason} at byte offset {exc.start}") from None


def read_lines(path: str | Path) -> list[str]:
    r"""Read a UTF-8 file as lines, split on "\n" only (CRLF reads like LF).

    str.splitlines() would also split on U+2028, U+0085, \x1c-\x1e, \v and
    \f, and so misalign line-parallel files. A final newline adds no line,
    and a leading byte-order mark is dropped, not kept in the first line.
    A file that is not UTF-8 raises ValueError (see `read_text`).
    """
    *lines, tail = read_text(path).split("\n")  # tail: the text after the last "\n"
    lines = [line.removesuffix("\r") for line in lines]
    if tail:
        lines.append(tail)
    return lines


def normalize_pivot(sentence: str) -> str:
    """Normal form used for pivot sentence identity.

    Strips leading/trailing whitespace, collapses internal whitespace runs
    to single spaces, and applies Unicode NFC. Case is preserved; the
    operation is idempotent.
    """
    return unicodedata.normalize("NFC", " ".join(sentence.split()))


def build_parallel(a: PivotBitext, b: PivotBitext) -> ParallelPair:
    """Join two pivot bitexts into a parallel corpus for (a.lang, b.lang).

    A pivot sentence occurring k_a times in ``a`` and k_b times in ``b``
    yields min(k_a, k_b) pairs, matching occurrences in order (i-th with
    i-th): each pivot keeps b's unmatched lines, and a's next occurrence
    pops the first of them. Output follows ``a``'s line order. Lines whose
    normalized pivot is empty are never indexed, so they are ignored;
    matching blank subtitle lines against each other would pair unrelated
    sentences. Sentences pass through `_tsv_field`, as in `tsv_lines`, so
    the pairs equal their TSV round trip.
    """
    if a.lang == b.lang:
        raise ValueError(f"cannot build a parallel pair from {a.lang!r} twice")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both bitexts must be nonempty")

    index: dict[str, list[int]] = {}  # pivot -> b's unmatched lines, last first
    for j in reversed(range(len(b))):
        if key := b.pivot_keys[j]:
            index.setdefault(key, []).append(j)

    pairs: list[tuple[str, str]] = []
    provenance: list[tuple[int, int]] = []
    for i, key in enumerate(a.pivot_keys):
        if matches := index.get(key):
            j = matches.pop()
            pairs.append((_tsv_field(a.target_lines[i]), _tsv_field(b.target_lines[j])))
            provenance.append((i, j))

    if not pairs:
        raise ValueError(f"no pivot sentences shared between {a.lang} and {b.lang}")
    return ParallelPair(src=a.lang, tgt=b.lang, pairs=pairs, provenance=provenance)


def split_pair(pair: ParallelPair, spec: SplitSpec) -> tuple[ParallelPair, ParallelPair, ParallelPair]:
    """Partition a ParallelPair into (train, dev, test).

    Dev and test receive floor(ratio * N) pairs each and train receives the
    remainder. Membership comes from a seeded permutation (see ``_rng``),
    so a given seed and input always produce the same partition; within each
    part the original pair order is kept. ValueError for fewer than 10
    pairs, or when train or test would be empty (dev may be).
    """
    n = len(pair)
    if n < 10:
        raise ValueError(f"need at least 10 pairs to split, got {n}")
    n_dev = int(spec.dev_ratio * n)
    n_test = int(spec.test_ratio * n)
    n_train = n - n_dev - n_test
    for name, count, ratio in (("train", n_train, spec.train_ratio), ("test", n_test, spec.test_ratio)):
        if not count:
            raise ValueError(
                f"pair {pair.src}-{pair.tgt}: splitting its {n} sentence pairs at "
                f"{name}_ratio {ratio!r} leaves the {name} split empty"
            )

    order = permutation(n, spec.seed)
    train_idx = sorted(order[:n_train])
    dev_idx = sorted(order[n_train:n_train + n_dev])
    test_idx = sorted(order[n_train + n_dev:])

    def take(indices: list[int]) -> ParallelPair:
        return ParallelPair(
            src=pair.src,
            tgt=pair.tgt,
            pairs=[pair.pairs[i] for i in indices],
            provenance=[pair.provenance[i] for i in indices] if pair.provenance else [],
        )

    return take(train_idx), take(dev_idx), take(test_idx)


def _tsv_field(sentence: str) -> str:
    r"""The sentence as a TSV field that `read_pairs_tsv` reads back as is.

    Tabs would split the field and become spaces. So does a final "\r",
    which `read_lines` would take for part of a "\r\n" line end.
    """
    sentence = sentence.replace("\t", " ")
    return sentence[:-1] + " " if sentence.endswith("\r") else sentence


def tsv_lines(pairs: list[tuple[str, str]]) -> list[str]:
    """Each sentence pair as one 2-column TSV line (src TAB tgt, newline)."""
    return [f"{_tsv_field(s)}\t{_tsv_field(t)}\n" for s, t in pairs]


def write_text_atomic(path: Path, text: str) -> None:
    """Write UTF-8 text so readers never observe a half-written file.

    A text that starts with U+FEFF gets a byte-order mark in front, which
    `read_text` drops, so it reads back whole. A file that already holds
    exactly these bytes is left untouched, so a rerun keeps its inode and
    mtime. A write cut short, even by a KeyboardInterrupt, leaves the file
    as it was and no ``.tmp`` file.
    """
    data = ("\ufeff" + text if text.startswith("\ufeff") else text).encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            tmp.write_bytes(data)
        except FileNotFoundError:  # the directory is created at its first file
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_pairs_tsv(path: str | Path) -> list[tuple[str, str]]:
    """Read sentence pairs from a 2-column TSV file."""
    out: list[tuple[str, str]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        cols = line.split("\t")
        if len(cols) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 tab-separated columns, got {len(cols)}")
        out.append((cols[0], cols[1]))
    return out


# The files of a split bundle, in the order `write_split_bundle` writes them.
SPLIT_BUNDLE_FILES = ("train.tsv", "dev.tsv", "test.tsv", "meta.json")


def write_split_bundle(
    directory: str | Path,
    train: ParallelPair,
    dev: ParallelPair,
    test: ParallelPair,
    spec: SplitSpec,
    extra_meta: dict | None = None,
) -> list[str]:
    """Write train/dev/test TSVs plus the JSON sidecar for one pair.

    Every file goes through `write_text_atomic`, so a directory that
    already holds this split keeps all four files, inode and mtime
    included. meta.json is written last. It records where the split came
    from (the pair, taken from ``train``, its counts, seed, ratios and
    ``extra_meta``); nothing reads it back.
    Returns the training split's `tsv_lines`, for subsets of its rows.
    """
    directory = Path(directory)
    train_name, dev_name, test_name, meta_name = SPLIT_BUNDLE_FILES
    train_lines = tsv_lines(train.pairs)
    write_text_atomic(directory / train_name, "".join(train_lines))
    write_text_atomic(directory / dev_name, "".join(tsv_lines(dev.pairs)))
    write_text_atomic(directory / test_name, "".join(tsv_lines(test.pairs)))
    meta = {
        "src": train.src,
        "tgt": train.tgt,
        "counts": {"train": len(train), "dev": len(dev), "test": len(test)},
        "seed": spec.seed,
        "ratios": {"train": spec.train_ratio, "dev": spec.dev_ratio, "test": spec.test_ratio},
    }
    if extra_meta:
        meta.update(extra_meta)
    write_text_atomic(directory / meta_name, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return train_lines
