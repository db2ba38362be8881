"""End-to-end experiment orchestration.

A JSON manifest describes an experiment: which languages to pair up, where
their pivot-aligned data lives, how to split and subsample, and which
trainer to run. `run_experiment` drives corpus construction, subset
generation, and per-cell training/decoding/scoring, and records every
(pair, fraction) cell in a ledger that survives interruption: re-running
skips finished cells, so a killed run resumes where it stopped. A run's
plan maps each pair to prepare, in ledger order, to its cells to run: a
cell runs when it is not done or its hypothesis file is missing, and a
pair is prepared when it has a cell to run or misses another of its
files. The plan is read from one listing of each pair directory.
Preparing a pair joins and splits its bitexts and writes all its corpus
and subset files, reading none back; a run trusts the files of the other
pairs, so a run of another manifest deletes the old ``ledger.json``
before it writes anything into the directory.
Each finished cell is appended as one line to ``ledger.journal``.
Before the first pair, a ``ledger.json`` that holds an earlier state of
the run's ledger is rewritten and one that holds nothing of it is
deleted, so from then on it holds nothing or the run's whole grid. It is
checkpointed when the number of cells recorded reaches a power of two
and written in full at the end only if the run recorded a cell, and the
journal is deleted: a rerun that records no cell writes no ledger. A run
holds an exclusive lock on its output directory, so a second run on the
same directory fails at once.
`build_report` turns a complete ledger into the report bundle (CSV
tables, SVG charts, JSON summary).

Everything emitted is deterministic: a pair's prepared files follow from
its inputs alone, aggregation rows are sorted, and floats are serialized
via repr, so two runs of the same manifest produce byte-identical bundles
no matter how the work was scheduled; a file that already holds the bytes
to be written is left untouched, mtime included. A run is one walk over
its plan, and one loop in the calling thread takes cells from it; it
starts no thread. For each pair in the plan, in ledger order, the walk
prepares its working set (its BLEU references and, for the builtin
trainer, the EM index of its training set, built at its first cell),
yields it with each of the pair's cells to run, and lets go of it before
the next pair. A builtin-trainer cell runs inline, one at a time, since
it holds the interpreter. An external-trainer cell is launched as a child
process, and up to `max_parallel_jobs` of them run at once; one selector
drains their pipes and wakes at the earliest deadline. Each turn of the
loop scores the cells whose commands ended before it fills the free
slots, so at most `max_parallel_jobs` working sets are alive at a time,
and one for the builtin trainer. The bitexts of the pairs to prepare are
all read before the first cell, so a bad input file stops the run before
any cell trains. A run that stops starts no new cell, while the commands
already running are waited for and journaled.

Manifest schema (paths are resolved relative to the manifest file)::

    {
      "languages": ["es", "pt"],
      "data_sources": {"es": {"pivot": "...", "target": "..."}, ...},
      "output_dir": "out",
      "split": {"dev_ratio": 0.1, "test_ratio": 0.2, "seed": 7},   # optional
      "fractions": [0.2, ..., 1.0],                                # optional
      "seed": 42,                                                  # optional
      "trainer": {"kind": "builtin-em", "em_iterations": 5},       # optional
      "max_parallel_jobs": 2,                                      # optional
      "matrices": {"written": {"es-pt": 86.4, ...}, "spoken": ...} # optional
    }
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import json
import math
import os
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import analysis, bleu, charts, corpus, sampling, trainer
from ._rng import derive_seed


class ManifestError(ValueError):
    """The experiment manifest is missing, malformed, or inconsistent."""


class LedgerError(RuntimeError):
    """The run ledger cannot support the requested operation."""


class RunInProgressError(LedgerError):
    """Another run holds the output directory."""


def fraction_slug(fraction: float) -> str:
    """Filesystem-safe name for a fraction: 0.2 -> '0.2', 1.0 -> '1.0'."""
    s = f"{fraction:.4f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentManifest:
    languages: tuple[str, ...]
    data_sources: dict[str, tuple[Path, Path]]  # lang -> (pivot, target)
    output_dir: Path
    dev_ratio: float = 0.1
    test_ratio: float = 0.2
    split_seed: int | None = None
    fractions: tuple[float, ...] = sampling.FRACTION_GRID
    seed: int = 0
    trainer_spec: trainer.TrainerSpec = field(default_factory=trainer.TrainerSpec)
    max_parallel_jobs: int = 1
    matrices: tuple[analysis.IntelligibilityMatrix, analysis.IntelligibilityMatrix] = field(
        default_factory=analysis.embedded_matrices
    )

    def __post_init__(self) -> None:
        if len(self.languages) < 2:
            raise ManifestError("need at least 2 languages")
        if len(set(self.languages)) != len(self.languages):
            raise ManifestError(f"duplicate languages: {self.languages}")
        try:
            for lang in self.languages:
                corpus.validate_lang(lang)
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc
        for lang in self.languages:
            if lang not in self.data_sources:
                raise ManifestError(f"no data_sources entry for language {lang!r}")
        if self.max_parallel_jobs < 1:
            raise ManifestError("max_parallel_jobs must be >= 1")
        fracs = self.fractions
        if len(fracs) < 2 or sorted(set(fracs)) != list(fracs):  # an AUC needs 2 points
            raise ManifestError(f"fractions must be at least 2, unique and ascending: {fracs}")
        if any(not 0.0 < f <= 1.0 for f in fracs):
            raise ManifestError(f"fractions must lie in (0, 1]: {fracs}")
        if fracs[-1] != 1.0:
            raise ManifestError("fractions must include 1.0 (full data)")
        slugs = [fraction_slug(f) for f in fracs]
        if len(set(slugs)) != len(slugs):
            # Cells of one pair name their files by slug, so they would
            # overwrite each other's subset and hypothesis files.
            raise ManifestError(f"fractions must differ at 4 decimals: {fracs}")
        try:
            # Every pair shares the ratios; reject bad ones before a run
            # touches the output directory.
            self.pair_split_spec(*self.pairs()[0])
        except ValueError as exc:
            raise ManifestError(f"bad split: {exc}") from exc

    def pairs(self) -> list[tuple[str, str]]:
        """All ordered language pairs, in manifest language order."""
        return [
            (a, b) for a in self.languages for b in self.languages if a != b
        ]

    def pair_split_seed(self, src: str, tgt: str) -> int:
        base = self.split_seed if self.split_seed is not None else derive_seed(self.seed, "split")
        return derive_seed(base, src, tgt)

    def pair_split_spec(self, src: str, tgt: str) -> corpus.SplitSpec:
        """The split of one pair's corpus; ValueError for bad ratios."""
        return corpus.SplitSpec(
            dev_ratio=self.dev_ratio,
            test_ratio=self.test_ratio,
            seed=self.pair_split_seed(src, tgt),
        )

    def pair_subset_seed(self, src: str, tgt: str) -> int:
        return derive_seed(self.seed, "subsample", src, tgt)


_MANIFEST_KEYS = {
    "languages", "data_sources", "output_dir", "split", "fractions",
    "seed", "trainer", "max_parallel_jobs", "matrices",
}


def _parse_matrix(medium: str, scores: dict) -> analysis.IntelligibilityMatrix:
    try:
        parsed = {
            analysis.parse_pair(pair): float(value)
            for pair, value in scores.items()
        }
        return analysis.IntelligibilityMatrix(medium=medium, scores=parsed)
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ManifestError(f"bad {medium} matrix: {exc}") from exc


_JSON_KINDS = {"integer": (int,), "number": (int, float), "string": (str,)}


def _typed(value, kind: str, name: str, optional: bool = False):
    """value if it is a JSON `kind` ("integer", "number" or "string").

    None passes when optional. Anything else raises ManifestError; so does
    a bool, which Python counts as an int.
    """
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise ManifestError(f"{name} must be a JSON {kind}, not {value!r}")
    return value


def _path(base: Path, value, name: str) -> Path:
    """The JSON string ``value`` as a path resolved from ``base``."""
    _typed(value, "string", name)
    try:
        return (base / value).resolve()
    except ValueError as exc:  # such as a NUL byte
        raise ManifestError(f"bad {name} {value!r}: {exc}") from exc


def load_manifest(path: str | Path) -> ExperimentManifest:
    """Load and validate an experiment manifest from a JSON file.

    All validation problems raise ManifestError so the CLI can map them to
    the configuration-error exit status.
    """
    path = Path(path)
    try:
        raw = json.loads(corpus.read_text(path))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # not UTF-8
        raise ManifestError(f"manifest {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError("manifest must be a JSON object")
    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise ManifestError(f"unknown manifest keys: {sorted(unknown)}")
    for key in ("languages", "data_sources", "output_dir"):
        if key not in raw:
            raise ManifestError(f"manifest is missing required key {key!r}")

    base = path.parent

    languages = raw["languages"]
    if not isinstance(languages, list) or not all(isinstance(l, str) for l in languages):
        raise ManifestError("languages must be a list of language codes")

    sources = raw["data_sources"]
    if not isinstance(sources, dict):
        raise ManifestError("data_sources must be an object")
    data_sources: dict[str, tuple[Path, Path]] = {}
    for lang, entry in sources.items():
        if not isinstance(entry, dict) or "pivot" not in entry or "target" not in entry:
            raise ManifestError(
                f"data_sources[{lang!r}] must have 'pivot' and 'target' paths"
            )
        data_sources[lang] = tuple(
            _path(base, entry[key], f"data_sources.{lang}.{key}") for key in ("pivot", "target")
        )
        if lang in languages:  # no run reads an unlisted language's files
            for p in data_sources[lang]:
                if not p.is_file():
                    raise ManifestError(f"data source file not found: {p}")

    split = raw.get("split", {})
    if not isinstance(split, dict) or set(split) - {"dev_ratio", "test_ratio", "seed"}:
        raise ManifestError("split accepts only dev_ratio, test_ratio, seed")

    fractions = raw.get("fractions", list(sampling.FRACTION_GRID))
    if not isinstance(fractions, list):
        raise ManifestError(f"fractions must be a list of numbers, not {fractions!r}")

    trainer_raw = raw.get("trainer", {})
    if not isinstance(trainer_raw, dict):
        raise ManifestError("trainer must be an object")
    allowed = {f.name for f in fields(trainer.TrainerSpec)}
    if set(trainer_raw) - allowed:
        raise ManifestError(f"unknown trainer keys: {sorted(set(trainer_raw) - allowed)}")
    trainer_kwargs = dict(trainer_raw)
    # Written or not, the workdir is relative to the manifest.
    trainer_kwargs["workdir"] = str(
        _path(base, trainer_kwargs.get("workdir", trainer.TrainerSpec.workdir), "trainer.workdir")
    )
    if "em_iterations" in trainer_kwargs:
        _typed(trainer_kwargs["em_iterations"], "integer", "trainer.em_iterations")
    if "timeout" in trainer_kwargs:
        _typed(trainer_kwargs["timeout"], "number", "trainer.timeout")
    try:
        spec = trainer.TrainerSpec(**trainer_kwargs)
    except (ValueError, TypeError) as exc:
        raise ManifestError(f"bad trainer spec: {exc}") from exc

    matrices = {}  # absent: the manifest's default, the embedded tables
    if "matrices" in raw:
        mat_raw = raw["matrices"]
        if not isinstance(mat_raw, dict) or set(mat_raw) != {"written", "spoken"}:
            raise ManifestError("matrices must have exactly 'written' and 'spoken'")
        matrices["matrices"] = (
            _parse_matrix("written", mat_raw["written"]),
            _parse_matrix("spoken", mat_raw["spoken"]),
        )

    try:
        return ExperimentManifest(
            languages=tuple(languages),
            data_sources=data_sources,
            output_dir=_path(base, raw["output_dir"], "output_dir"),
            dev_ratio=float(_typed(
                split.get("dev_ratio", ExperimentManifest.dev_ratio), "number", "split.dev_ratio"
            )),
            test_ratio=float(_typed(
                split.get("test_ratio", ExperimentManifest.test_ratio), "number", "split.test_ratio"
            )),
            split_seed=_typed(split.get("seed"), "integer", "split.seed", optional=True),
            fractions=tuple(float(_typed(f, "number", "each fraction")) for f in fractions),
            seed=_typed(raw.get("seed", ExperimentManifest.seed), "integer", "seed"),
            trainer_spec=spec,
            max_parallel_jobs=_typed(
                raw.get("max_parallel_jobs", ExperimentManifest.max_parallel_jobs),
                "integer", "max_parallel_jobs",
            ),
            **matrices,
        )
    except ManifestError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ManifestError(str(exc)) from exc


def _input_digests(manifest: ExperimentManifest) -> dict[Path, str]:
    """sha256 of the listed languages' input files, each file read once."""
    return {
        path: _sha256_file(path)
        for lang in manifest.languages
        for path in manifest.data_sources[lang]
    }


def manifest_fingerprint(
    manifest: ExperimentManifest, digests: dict[Path, str] | None = None
) -> str:
    """Content hash of everything that can change experiment results.

    Includes the input file contents of the listed languages, split/subset
    parameters, and the trainer configuration; deliberately excludes
    output_dir, max_parallel_jobs and the ``data_sources`` of unlisted
    languages, which no run reads, so they must not affect results. ``digests`` are the input
    file hashes from `_input_digests`, taken now when not given.
    """
    if digests is None:
        digests = _input_digests(manifest)
    payload = {
        "languages": list(manifest.languages),
        "sources": {
            lang: [digests[path] for path in manifest.data_sources[lang]]
            for lang in manifest.languages
        },
        "split": {
            "dev_ratio": repr(manifest.dev_ratio),
            "test_ratio": repr(manifest.test_ratio),
            "seed": manifest.split_seed,
        },
        "fractions": [repr(f) for f in manifest.fractions],
        "seed": manifest.seed,
        "trainer": {
            "kind": manifest.trainer_spec.kind,
            "em_iterations": manifest.trainer_spec.em_iterations,
            "command_template": manifest.trainer_spec.command_template,
        },
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


@dataclass
class CellRecord:
    src: str
    tgt: str
    fraction: float
    status: str = "pending"  # pending | done | failed
    bleu: float | None = None
    wall_time: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        # Shallow, unlike dataclasses.asdict: the dict is only serialized.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CellRecord":
        """The record that `to_dict` gave ``d``; keys that are not fields,
        such as one that an older version wrote, are ignored.

        ValueError for a record that no run writes: a status other than
        pending, done or failed, or a done record whose bleu is not a
        finite number.
        """
        record = cls(**{name: d[name] for name in _CELL_FIELDS if name in d})
        if record.status not in ("pending", "done", "failed"):
            raise ValueError(f"unknown cell status {record.status!r}")
        if record.status == "done" and not (
            type(record.bleu) in (int, float) and math.isfinite(record.bleu)  # no bool
        ):
            raise ValueError(f"done cell with bleu {record.bleu!r}")
        return record


_CELL_FIELDS = tuple(f.name for f in fields(CellRecord))


@dataclass
class RunLedger:
    """Per-cell status for one experiment, keyed by (src, tgt, fraction)."""

    fingerprint: str
    cells: dict[tuple[str, str, float], CellRecord]

    def key_str(self, key: tuple[str, str, float]) -> str:
        src, tgt, fraction = key
        return f"{src}-{tgt}/{fraction_slug(fraction)}"

    def all_done(self) -> bool:
        return all(c.status == "done" for c in self.cells.values())

    def failed(self) -> list[CellRecord]:
        return [c for c in self.cells.values() if c.status == "failed"]

    def points(self) -> dict[tuple[str, str], list[tuple[float, float]]]:
        """The (fraction, BLEU) points of the done cells, by pair."""
        points: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for (src, tgt, fraction), record in self.cells.items():
            if record.status == "done":
                points.setdefault((src, tgt), []).append((fraction, record.bleu))
        return points

    def to_json(self) -> str:
        cells = {self.key_str(k): c.to_dict() for k, c in self.cells.items()}
        return json.dumps(
            {"fingerprint": self.fingerprint, "cells": cells},
            indent=2,
            sort_keys=True,
        ) + "\n"

    def save(self, path: Path) -> None:
        corpus.write_text_atomic(path, self.to_json())

    def journal_line(self, record: CellRecord) -> bytes:
        """One journal line: the record under this ledger's fingerprint."""
        line = json.dumps(
            {"fingerprint": self.fingerprint, "cell": record.to_dict()},
            sort_keys=True,
        )
        return line.encode("utf-8") + b"\n"

    def replay(self, path: Path) -> int:
        """Apply the journal's complete lines that carry this fingerprint.

        A torn last line (no newline), an unreadable line and a line from
        another fingerprint are ignored; a later line for a cell replaces
        an earlier one. Returns the number of records applied.
        """
        try:
            data = Path(path).read_bytes()
        except FileNotFoundError:
            return 0
        applied = 0
        for line in data.split(b"\n")[:-1]:
            try:
                raw = json.loads(line)
                if raw["fingerprint"] != self.fingerprint:
                    continue
                cell = CellRecord.from_dict(raw["cell"])
            except (ValueError, KeyError, TypeError):
                continue
            self.cells[(cell.src, cell.tgt, cell.fraction)] = cell
            applied += 1
        return applied

    @classmethod
    def load(cls, path: Path) -> "RunLedger":
        """Read a ledger; LedgerError when it is not valid JSON of a ledger.

        I/O errors (OSError) propagate unchanged.
        """
        data = Path(path).read_bytes()
        try:
            raw = json.loads(data.decode("utf-8"))
            cells = {}
            for record in raw["cells"].values():
                cell = CellRecord.from_dict(record)
                cells[(cell.src, cell.tgt, cell.fraction)] = cell
            if not isinstance(raw["fingerprint"], str):
                raise TypeError("fingerprint is not a string")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise LedgerError(f"malformed ledger {path}: {exc!r}") from exc
        return cls(fingerprint=raw["fingerprint"], cells=cells)


def _load_ledger(path: Path, fingerprint: str) -> RunLedger:
    """The ledger at ``path``; LedgerError if it is missing, malformed or of
    another fingerprint. Other I/O errors (OSError) propagate."""
    if not path.is_file():
        raise LedgerError(f"no ledger at {path}; run the pipeline first")
    ledger = RunLedger.load(path)
    if ledger.fingerprint != fingerprint:
        raise LedgerError(
            f"the ledger at {path} does not match the inputs and settings "
            "of the manifest; run the pipeline first"
        )
    return ledger


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _PairData:
    """In-memory working set for one ordered pair, compared by identity."""

    src: str
    tgt: str
    train_pairs: list[tuple[str, str]]
    test_src: list[str]
    test_refs: bleu.References
    subsets: dict[float, sampling.SubsetManifest]

    @functools.cached_property
    def em_corpus(self) -> trainer.Model1Corpus:
        """The builtin trainer's index of train_pairs, built at first use."""
        return trainer.Model1Corpus(self.train_pairs)


def _pair_files(manifest: ExperimentManifest) -> dict[str, list[str]]:
    """Every file a finished run keeps for a pair, in ``<top>/<src>-<tgt>/`` by top.

    `_prepare_pair` writes those of ``corpus`` and ``subsets``; ``hyps``
    names each cell's hypothesis file, in fraction order. A run prepares a
    pair that misses any of them, and runs each cell whose hypothesis file
    is missing or that is not done.
    """
    names = list(corpus.SPLIT_BUNDLE_FILES)
    slugs = [fraction_slug(f) for f in manifest.fractions]
    subsets = [slug + ".json" for slug in slugs]
    if manifest.trainer_spec.kind == "external":
        names.append("test.src.txt")
        subsets += [slug + ".train.tsv" for slug in slugs]
    return {"corpus": names, "subsets": subsets, "hyps": [slug + ".txt" for slug in slugs]}


def _prepare_pair(
    manifest: ExperimentManifest,
    bitexts: dict[str, corpus.PivotBitext],
    digests: dict[Path, str],
    src: str,
    tgt: str,
) -> _PairData:
    """Write a pair's corpus and subset files (`_pair_files`); return its working set.

    The corpus is joined from ``bitexts[src]`` and ``bitexts[tgt]`` and split
    on every call, and no file is read back. A split that `corpus.split_pair`
    refuses raises ValueError before any file is written. Each file goes
    through `corpus.write_text_atomic`, so one that already holds its bytes
    is left untouched; ``meta.json`` records a fingerprint of the inputs as
    provenance. ``hyps/<pair>/`` is made here, so an external cell's command
    only needs launching; its subset TSVs are joined from the training
    lines that `corpus.write_split_bundle` formatted, dropped on return.
    """
    out = manifest.output_dir
    pair_dir = out / "corpus" / f"{src}-{tgt}"
    spec = manifest.pair_split_spec(src, tgt)
    fingerprint = hashlib.sha256(
        json.dumps(
            {
                "files": [
                    digests[path]
                    for lang in (src, tgt)
                    for path in manifest.data_sources[lang]
                ],
                "ratios": [repr(manifest.dev_ratio), repr(manifest.test_ratio)],
                "seed": spec.seed,
            },
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()

    train, dev, test = corpus.split_pair(corpus.build_parallel(bitexts[src], bitexts[tgt]), spec)
    train_lines = corpus.write_split_bundle(
        pair_dir, train, dev, test, spec, extra_meta={"fingerprint": fingerprint}
    )
    (out / "hyps" / f"{src}-{tgt}").mkdir(parents=True, exist_ok=True)
    test_src = [s for s, _ in test.pairs]
    external = manifest.trainer_spec.kind == "external"
    if external:
        corpus.write_text_atomic(pair_dir / "test.src.txt", "\n".join(test_src) + "\n")

    subset_dir = out / "subsets" / f"{src}-{tgt}"
    subset_seed = manifest.pair_subset_seed(src, tgt)
    subsets = dict(zip(manifest.fractions, sampling.subsample(
        len(train), manifest.fractions, subset_seed, src=src, tgt=tgt
    )))
    for fraction, sm in subsets.items():
        slug = fraction_slug(fraction)
        corpus.write_text_atomic(subset_dir / f"{slug}.json", sm.to_json() + "\n")
        if external:
            corpus.write_text_atomic(
                subset_dir / f"{slug}.train.tsv", "".join([train_lines[i] for i in sm.indices])
            )

    return _PairData(
        src=src,
        tgt=tgt,
        train_pairs=train.pairs,
        test_src=test_src,
        test_refs=bleu.References(t for _, t in test.pairs),
        subsets=subsets,
    )


def _entries(directory: str) -> dict[str, os.DirEntry]:
    """The entries of ``directory`` by name, from one listing; a directory
    that cannot be listed has none."""
    try:
        with os.scandir(directory) as entries:
            return {entry.name: entry for entry in entries}
    except (OSError, ValueError):
        return {}


def _remove(entry: os.DirEntry) -> None:
    """Delete ``entry``: a directory with everything in it, else the name."""
    if entry.is_dir(follow_symlinks=False):
        shutil.rmtree(entry.path)
    else:
        os.unlink(entry.path)


def _hyp_path(data: _PairData, fraction: float) -> str:
    """A cell's hypothesis file, relative to output_dir."""
    return f"hyps/{data.src}-{data.tgt}/{fraction_slug(fraction)}.txt"


def _end_cell(
    key: tuple[str, str, float],
    data: _PairData,
    started: float,
    hypotheses: Callable[[], list[str]],
) -> CellRecord:
    """The record of cell ``key``, timed from ``started``: done with the
    BLEU of ``hypotheses()`` against the pair's references, or failed with
    whatever training, decoding, the command or scoring raised."""
    try:
        outcome = {"status": "done", "bleu": bleu.corpus_bleu(hypotheses(), data.test_refs).score}
    except Exception as exc:  # cell failures must not sink the run
        outcome = {"status": "failed", "error": str(exc)}
    return CellRecord(*key, **outcome, wall_time=time.monotonic() - started)


def _run_cell(
    manifest: ExperimentManifest, data: _PairData, fraction: float
) -> list[str]:
    """Train and decode one builtin-trainer cell; return its hypotheses.

    The hypothesis file is written atomically.
    """
    table = trainer.train_model1(
        data.em_corpus.subset(data.subsets[fraction].indices),
        manifest.trainer_spec.em_iterations,
    )
    hyps = [trainer.decode(table, s) for s in data.test_src]
    corpus.write_text_atomic(
        manifest.output_dir / _hyp_path(data, fraction), "\n".join(hyps) + "\n"
    )
    return hyps


def _launch_cell(
    manifest: ExperimentManifest,
    data: _PairData,
    fraction: float,
    jobs: trainer.ExternalJobs,
) -> trainer.ExternalJob:
    """Start one external-trainer cell's command in ``jobs``.

    The command's files and the directory of its hypothesis file were
    made when the pair was prepared (`_prepare_pair`). Once the job has
    ended, `_end_cell` scores its `hypotheses(len(data.test_src))` into
    the cell's record: the pair's test sources are in memory, so the count
    needs no read of ``test.src.txt``.
    """
    out = manifest.output_dir
    pair = f"{data.src}-{data.tgt}"
    return jobs.launch(
        manifest.trainer_spec,
        str(out / "subsets" / pair / f"{fraction_slug(fraction)}.train.tsv"),
        str(out / "corpus" / pair / "test.src.txt"),
        str(out / _hyp_path(data, fraction)),
    )


@contextlib.contextmanager
def _exclusive(out: Path):
    """Hold an exclusive lock on the directory itself for the block.

    Locking the directory leaves no lock file in the bundle, and the kernel
    drops the lock when a killed process dies.
    """
    fd = os.open(out, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RunInProgressError(f"another run is using {out}") from None
        yield
    finally:
        os.close(fd)


def run_experiment(manifest: ExperimentManifest) -> RunLedger:
    """Run every (pair, fraction) cell, resuming any earlier progress.

    The run's plan is one ordered dict: each pair to prepare, in ledger
    order, maps to its cells to run. A cell runs when it is not done or
    its hypothesis file is missing. A pair is in the plan when it has a
    cell to run, or with an empty list when it misses another file
    `_pair_files` lists. Those are prepared again; the other pairs'
    files are trusted, since a ledger of another manifest is deleted
    before any pair is prepared. So is every entry of ``corpus/``,
    ``subsets/`` and ``hyps/`` that a fresh run of this manifest would not
    write, so a reused directory ends up with a fresh run's bundle.
    Whether a file exists is read from one listing of its directory. A
    failing cell is recorded as failed and does not stop the others. Each
    recorded cell is appended to ``ledger.journal`` and flushed, so a
    killed run loses at most the cells it was working on;
    ``ledger.json`` is checkpointed when the number of cells recorded in
    this run is a power of two, so it shows progress. Before the first
    pair it is saved if it holds an earlier state of the ledger (a killed
    run's journal was replayed, or its cells are not the grid's) and
    deleted if it holds nothing of it; at the end it is saved only if the
    run recorded a cell, and the journal is deleted. So a pass with no
    cell to run creates no journal, and writes ``ledger.json`` only
    when it held an earlier state. The run holds an exclusive lock on
    output_dir; a second run on the same directory raises
    `RunInProgressError` before it reads or writes anything.

    The run is one walk over the plan, in ledger order. The walk
    prepares each pair once, yields its working set with each of its
    cells, and lets go of it before it prepares the next pair. One loop in
    the calling thread takes the cells; it starts no thread. A builtin
    cell trains and decodes inline (`_run_cell`). An external cell is
    launched (`_launch_cell`) into one of `max_parallel_jobs` slots. Either
    trainer's hypotheses are scored, or the cell's failure recorded, by
    `_end_cell`, and the record is journaled. Each turn of the loop scores
    the ended cells, launches into the free slots, and then waits on the
    running commands through one selector until one ends or the earliest
    deadline passes. A cell holds its working set from its start until it
    is recorded, so at most `max_parallel_jobs` working sets are alive (one
    for the builtin trainer). The bitexts of the pairs to prepare are read
    before the first cell, once each, and kept until the run ends: a bad
    input file, or an external trainer's missing workdir, raises before any
    cell trains, before ``ledger.journal`` exists and before
    ``ledger.json`` or an old journal is changed.

    The first exception that stops the run, such as KeyboardInterrupt or a
    failed preparation, stops new cells: the commands already running are
    waited for, scored and journaled, and then it is raised. SIGINT is
    deferred while a cell starts and while it is scored, so a builtin cell
    once begun finishes and is journaled, and a launched command is always
    known to the loop. A second exception while the loop drains the
    running commands kills their process groups and is raised at once, so
    nothing more is journaled. No child process outlives the call.
    """
    out = manifest.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with _exclusive(out):
        digests = _input_digests(manifest)
        fingerprint = manifest_fingerprint(manifest, digests)
        expected_keys = [
            (src, tgt, fraction)
            for src, tgt in manifest.pairs()
            for fraction in manifest.fractions
        ]
        ledger_path = out / "ledger.json"
        journal_path = out / "ledger.journal"
        # This run's ledger: ledger.json with any journal replayed onto it,
        # its cells exactly expected_keys in order, missing ones pending.
        # on_disk names what ledger.json holds: this ledger ("this": this
        # fingerprint, exactly these cells and no journal record replayed),
        # an earlier state of it ("earlier": a record was replayed, or its
        # cells differ) or nothing of it ("nothing": it is missing, refused
        # by `_load_ledger` or unreadable, and no record was replayed).
        try:
            ledger = _load_ledger(ledger_path, fingerprint)
            on_disk = "this" if ledger.cells.keys() == set(expected_keys) else "earlier"
        except (LedgerError, OSError):
            ledger = RunLedger(fingerprint=fingerprint, cells={})
            on_disk = "nothing"
        if ledger.replay(journal_path):
            on_disk = "earlier"
        ledger.cells = {key: ledger.cells.get(key) or CellRecord(*key) for key in expected_keys}

        # The plan: each pair to prepare, in ledger order, with its cells to
        # run. Each pair directory is listed once.
        todo: dict[tuple[str, str], list[tuple[str, str, float]]] = {}
        pair_files = _pair_files(manifest)
        listings = {}
        for src, tgt in manifest.pairs():
            pair = f"{src}-{tgt}"
            files = {}  # the files of each listing, as `Path.is_file` sees them
            for top in pair_files:
                listings[top, pair] = entries = _entries(f"{out}/{top}/{pair}")
                files[top] = {name for name, entry in entries.items() if entry.is_file()}
            keys = [
                (src, tgt, fraction)
                for fraction, name in zip(manifest.fractions, pair_files["hyps"])
                if ledger.cells[(src, tgt, fraction)].status != "done"
                or name not in files["hyps"]
            ]
            if keys or not all(files[top].issuperset(names) for top, names in pair_files.items()):
                todo[(src, tgt)] = keys

        # What the cells need is checked and read before the first of them.
        # Pivot lines go through one dict, so a sentence in several bitexts
        # is held once.
        spec = manifest.trainer_spec
        if any(todo.values()) and spec.kind == "external" and not os.path.isdir(spec.workdir):
            raise ManifestError(f"trainer.workdir {spec.workdir} is not a directory")
        pivots: dict[str, str] = {}
        bitexts: dict[str, corpus.PivotBitext] = {}
        for lang in dict.fromkeys(lang for pair in todo for lang in pair):
            loaded = corpus.load_pivot_bitext(*manifest.data_sources[lang], lang)
            loaded.pivot_lines = [pivots.setdefault(s, s) for s in loaded.pivot_lines]
            bitexts[lang] = loaded
        del pivots

        # Only a run whose inputs have loaded changes what the bundle
        # records, and it does so before it prepares a pair, so from the
        # first pair on ledger.json holds nothing or this run's grid. An
        # earlier state is saved: a journal left by a killed run is folded
        # in and deleted, so no torn line can get glued to the next one
        # appended. Nothing of it (another manifest's ledger, or one that
        # cannot be read) is deleted: its done cells vouch for files this
        # run is about to overwrite, and a rerun of its manifest trusts the
        # files of every pair whose cells are all done.
        if on_disk == "earlier":
            ledger.save(ledger_path)
        elif on_disk == "nothing":
            ledger_path.unlink(missing_ok=True)
        journal_path.unlink(missing_ok=True)
        # Every entry of corpus/, subsets/ and hyps/ that a fresh run of this
        # manifest would not write goes, so a reused directory ends up with
        # the same bundle: another manifest's pairs and fractions, another
        # trainer's files, and a killed write's ``.tmp``.
        for top in pair_files:
            for pair, entry in _entries(f"{out}/{top}").items():
                if (top, pair) not in listings:
                    _remove(entry)
        for (top, pair), entries in listings.items():
            for name in entries.keys() - pair_files[top]:
                _remove(entries[name])

        def walk():
            """Prepare each pair in turn; yield (key, working set) per cell to run."""
            for pair, keys in todo.items():
                data = _prepare_pair(manifest, bitexts, digests, *pair)
                for key in keys:
                    yield key, data
                del data

        recorded = 0
        running: dict[trainer.ExternalJob, tuple] = {}  # job -> (key, data, started)

        def journal_record(key: tuple[str, str, float], record: CellRecord) -> None:
            nonlocal recorded
            journal.write(ledger.journal_line(record))
            journal.flush()
            ledger.cells[key] = record
            recorded += 1
            if recorded & (recorded - 1) == 0:
                ledger.save(ledger_path)

        # SIGINT is deferred while a cell starts and while it is scored, so
        # a cell once begun is journaled.
        def start(key: tuple[str, str, float], data: _PairData) -> None:
            with trainer.sigint_deferred():
                started = time.monotonic()
                if manifest.trainer_spec.kind == "builtin-em":
                    hypotheses = functools.partial(_run_cell, manifest, data, key[2])
                    journal_record(key, _end_cell(key, data, started, hypotheses))
                    return
                try:
                    running[_launch_cell(manifest, data, key[2], jobs)] = key, data, started
                except Exception as exc:  # a cell that cannot start fails alone
                    journal_record(key, CellRecord(
                        *key, "failed", error=str(exc), wall_time=time.monotonic() - started
                    ))

        def finish(job: trainer.ExternalJob) -> None:
            with trainer.sigint_deferred():
                key, data, started = running.pop(job)
                hypotheses = functools.partial(job.hypotheses, len(data.test_src))
                journal_record(key, _end_cell(key, data, started, hypotheses))

        stop: BaseException | None = None  # the first exception, which stops the run
        with (
            (open(journal_path, "wb") if any(todo.values()) else contextlib.nullcontext()) as journal,
            trainer.ExternalJobs() as jobs,
            contextlib.closing(walk()) as cells,
        ):
            while True:
                # Ended commands are scored before free slots are filled,
                # so no more than max_parallel_jobs cells hold a working
                # set. Builtin cells run here.
                try:
                    for job in [job for job in running if job.ended]:
                        finish(job)
                    while (
                        stop is None
                        and len(running) < manifest.max_parallel_jobs
                        and (cell := next(cells, None))
                    ):
                        start(*cell)
                        del cell  # not held while the next pair is prepared
                    if not running:
                        break
                    jobs.wait()
                except BaseException as exc:
                    if stop is not None:
                        raise  # a second one: leaving the block kills the commands
                    stop = exc
        if stop is not None:
            raise stop

        if recorded:
            ledger.save(ledger_path)
        journal_path.unlink(missing_ok=True)

        corpus.write_text_atomic(out / "scores.csv", analysis.scores_to_csv(ledger.points()))
        return ledger


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report_from_auc(
    auc_by_pair: dict[tuple[str, str], float],
    matrices: tuple[analysis.IntelligibilityMatrix, analysis.IntelligibilityMatrix],
    output_dir: str | Path,
) -> dict:
    """Emit the correlation half of the report bundle from AUC values.

    Writes auc.csv, then a scatter CSV, a scatter SVG and a Pearson r for
    each view of `analysis.VIEWS` (pairs of the excluded source are drawn
    as hollow points and flagged in the CSV), and last summary.json.
    Pearson values are null when fewer than 3 scatter points are kept or
    the kept values have no variance; a view with no points at all gets no
    SVG, and loses one an earlier report left. Returns the summary.
    """
    out = Path(output_dir)
    by_medium = {matrix.medium: matrix for matrix in matrices}
    corpus.write_text_atomic(out / "auc.csv", analysis.auc_to_csv(auc_by_pair))

    summary: dict = {
        "auc": {analysis.pair_str(pair): auc_by_pair[pair] for pair in sorted(auc_by_pair)},
    }
    for view, medium, excluded in analysis.VIEWS:
        points = analysis.build_scatter(auc_by_pair, by_medium[medium])
        kept = analysis.filter_by_source(points, excluded)
        try:
            r = analysis.pearson([p.auc for p in kept], [p.intelligibility for p in kept])
        except ValueError:
            r = None
        summary[f"pearson_{view}"] = r
        corpus.write_text_atomic(
            out / f"scatter_{view}.csv",
            analysis.scatter_to_csv(points, excluded_source=excluded),
        )
        svg = out / "plots" / f"scatter_{view}.svg"
        if not points:
            svg.unlink(missing_ok=True)
            continue
        r_text = f"Pearson r = {r:.3f}" if r is not None else "Pearson r undefined"
        marked = [
            (p.auc, p.intelligibility, analysis.pair_str(p.pair_id), p.pair_id[0] == excluded)
            for p in points
        ]
        corpus.write_text_atomic(
            svg,
            charts.scatter_chart(
                f"AUC vs {medium} intelligibility ({r_text})",
                "learning-curve AUC",
                f"{medium} intelligibility",
                marked,
            ),
        )

    corpus.write_text_atomic(
        out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def _refuse_unfinished(ledger: RunLedger) -> None:
    """LedgerError naming the cells not done: a partial grid biases its curves."""
    unfinished = [ledger.key_str(k) for k, c in sorted(ledger.cells.items()) if c.status != "done"]
    if unfinished:
        raise LedgerError(
            f"ledger has {len(unfinished)} unfinished cells: "
            + ", ".join(unfinished[:8])
            + ("..." if len(unfinished) > 8 else "")
        )


def finished_ledger(manifest: ExperimentManifest) -> RunLedger:
    """The ledger of ``manifest``'s finished run, to report from.

    LedgerError when it is missing, malformed, of other inputs or
    settings, or has a cell not done.
    """
    ledger = _load_ledger(manifest.output_dir / "ledger.json", manifest_fingerprint(manifest))
    _refuse_unfinished(ledger)
    return ledger


def build_report(
    ledger: RunLedger,
    matrices: tuple[analysis.IntelligibilityMatrix, analysis.IntelligibilityMatrix],
    output_dir: str | Path,
) -> dict:
    """Turn a complete ledger into the full report bundle.

    Raises LedgerError, and writes nothing, unless every cell is done, as
    in a ledger from `finished_ledger`, and every pair's relative curve
    can be built.
    """
    _refuse_unfinished(ledger)
    out = Path(output_dir)

    try:
        curves = analysis.relative_curves(ledger.points())
    except ValueError as exc:  # such as a pair whose BLEU at fraction 1.0 is 0
        raise LedgerError(str(exc)) from exc
    corpus.write_text_atomic(out / "curves.csv", analysis.curves_to_csv(curves))

    sources = sorted({c.pair_id[0] for c in curves})
    for src in sources:
        series = {
            analysis.pair_str(c.pair_id): [
                (p.fraction * 100.0, p.relative) for p in c.points
            ]
            for c in curves
            if c.pair_id[0] == src
        }
        corpus.write_text_atomic(
            out / "plots" / f"curves_{src}.svg",
            charts.line_chart(
                f"Learning curves from {src}",
                "training data used (%)",
                "relative BLEU",
                series,
            ),
        )
    # A reused output directory may hold the plots of sources it no longer has.
    drawn = {f"curves_{src}.svg" for src in sources}
    for svg in (out / "plots").glob("curves_*.svg"):
        if svg.name not in drawn:
            svg.unlink()

    auc_by_pair = {c.pair_id: analysis.auc_trapezoid(c) for c in curves}
    return report_from_auc(auc_by_pair, matrices, out)
