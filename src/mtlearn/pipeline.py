"""End-to-end experiment orchestration.

A JSON manifest describes an experiment: which languages to pair up, where
their pivot-aligned data lives, how to split and subsample, and which
trainer to run. `run_experiment` drives corpus construction, subset
generation, per-cell training/decoding/scoring with a bounded worker pool,
and records every (pair, fraction) cell in a ledger that survives
interruption: re-running skips finished cells, so a killed run resumes
where it stopped. Each finished cell is appended as one line to
``ledger.journal``; ``ledger.json`` is checkpointed when the number of
cells recorded reaches a power of two and written in full at the end,
when the journal is deleted. A run holds an exclusive lock on its output
directory, so a second run on the same directory fails at once.
`build_report` turns a complete ledger into the report bundle (CSV
tables, SVG charts, JSON summary).

Everything emitted is deterministic: artifact reuse is guarded by content
fingerprints, aggregation rows are sorted, and floats are serialized via
repr, so two runs of the same manifest produce byte-identical bundles no
matter how the work was scheduled. The worker pool is thread-based:
`max_parallel_jobs` bounds how many external trainer commands run at
once, while builtin-trainer cells run one at a time, because they hold
the interpreter lock and a second thread would only add memory. A pair's
working set (its BLEU references and, for the builtin trainer, the EM
index of its training set, built at its first cell) is dropped once its
last cell is recorded. The 5-language synthetic experiment finishes in
seconds either way.

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
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
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


def _write_text_atomic(path: Path, text: str) -> None:
    """Write UTF-8 text so readers never observe a half-written file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


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
    trainer_spec: trainer.TrainerSpec = field(
        default_factory=lambda: trainer.TrainerSpec(kind="builtin-em")
    )
    max_parallel_jobs: int = 1
    matrices: tuple[analysis.IntelligibilityMatrix, analysis.IntelligibilityMatrix] | None = None

    def __post_init__(self) -> None:
        if len(self.languages) < 2:
            raise ManifestError("need at least 2 languages")
        if len(set(self.languages)) != len(self.languages):
            raise ManifestError(f"duplicate languages: {self.languages}")
        for lang in self.languages:
            if lang not in self.data_sources:
                raise ManifestError(f"no data_sources entry for language {lang!r}")
        if self.max_parallel_jobs < 1:
            raise ManifestError("max_parallel_jobs must be >= 1")
        fracs = self.fractions
        if not fracs or sorted(set(fracs)) != list(fracs):
            raise ManifestError(f"fractions must be unique and ascending: {fracs}")
        if any(not 0.0 < f <= 1.0 for f in fracs):
            raise ManifestError(f"fractions must lie in (0, 1]: {fracs}")
        if fracs[-1] != 1.0:
            raise ManifestError("fractions must include 1.0 (full data)")
        slugs = [fraction_slug(f) for f in fracs]
        if len(set(slugs)) != len(slugs):
            # Cells of one pair name their files by slug, so they would
            # overwrite each other's subset and hypothesis files.
            raise ManifestError(f"fractions must differ at 4 decimals: {fracs}")

    def pairs(self) -> list[tuple[str, str]]:
        """All ordered language pairs, in manifest language order."""
        return [
            (a, b) for a in self.languages for b in self.languages if a != b
        ]

    def pair_split_seed(self, src: str, tgt: str) -> int:
        base = self.split_seed if self.split_seed is not None else derive_seed(self.seed, "split")
        return derive_seed(base, src, tgt)

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
    except (ValueError, TypeError, AttributeError) as exc:
        raise ManifestError(f"bad {medium} matrix: {exc}") from exc


def load_manifest(path: str | Path) -> ExperimentManifest:
    """Load and validate an experiment manifest from a JSON file.

    All validation problems raise ManifestError so the CLI can map them to
    the configuration-error exit status.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
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
    try:
        for lang in languages:
            corpus.validate_lang(lang)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc

    sources = raw["data_sources"]
    if not isinstance(sources, dict):
        raise ManifestError("data_sources must be an object")
    data_sources: dict[str, tuple[Path, Path]] = {}
    for lang, entry in sources.items():
        if not isinstance(entry, dict) or "pivot" not in entry or "target" not in entry:
            raise ManifestError(
                f"data_sources[{lang!r}] must have 'pivot' and 'target' paths"
            )
        pivot = (base / entry["pivot"]).resolve()
        target = (base / entry["target"]).resolve()
        for p in (pivot, target):
            if not p.is_file():
                raise ManifestError(f"data source file not found: {p}")
        data_sources[lang] = (pivot, target)

    split = raw.get("split", {})
    if not isinstance(split, dict) or set(split) - {"dev_ratio", "test_ratio", "seed"}:
        raise ManifestError("split accepts only dev_ratio, test_ratio, seed")

    trainer_raw = raw.get("trainer", {"kind": "builtin-em"})
    if not isinstance(trainer_raw, dict):
        raise ManifestError("trainer must be an object")
    allowed = {"kind", "em_iterations", "command_template", "workdir", "timeout"}
    if set(trainer_raw) - allowed:
        raise ManifestError(f"unknown trainer keys: {sorted(set(trainer_raw) - allowed)}")
    trainer_kwargs = dict(trainer_raw)
    trainer_kwargs.setdefault("kind", "builtin-em")
    if "workdir" in trainer_kwargs:
        trainer_kwargs["workdir"] = str((base / trainer_kwargs["workdir"]).resolve())
    try:
        spec = trainer.TrainerSpec(**trainer_kwargs)
    except (ValueError, TypeError) as exc:
        raise ManifestError(f"bad trainer spec: {exc}") from exc

    matrices = None
    if "matrices" in raw:
        mat_raw = raw["matrices"]
        if not isinstance(mat_raw, dict) or set(mat_raw) != {"written", "spoken"}:
            raise ManifestError("matrices must have exactly 'written' and 'spoken'")
        matrices = (
            _parse_matrix("written", mat_raw["written"]),
            _parse_matrix("spoken", mat_raw["spoken"]),
        )

    try:
        return ExperimentManifest(
            languages=tuple(languages),
            data_sources=data_sources,
            output_dir=(base / raw["output_dir"]).resolve(),
            dev_ratio=float(split.get("dev_ratio", 0.1)),
            test_ratio=float(split.get("test_ratio", 0.2)),
            split_seed=split.get("seed"),
            fractions=tuple(float(f) for f in raw.get("fractions", sampling.FRACTION_GRID)),
            seed=int(raw.get("seed", 0)),
            trainer_spec=spec,
            max_parallel_jobs=int(raw.get("max_parallel_jobs", 1)),
            matrices=matrices,
        )
    except ManifestError:
        raise
    except (ValueError, TypeError) as exc:
        raise ManifestError(str(exc)) from exc


def _input_digests(manifest: ExperimentManifest) -> dict[Path, str]:
    """sha256 of every input file, each file read once."""
    return {
        path: _sha256_file(path)
        for paths in manifest.data_sources.values()
        for path in paths
    }


def manifest_fingerprint(
    manifest: ExperimentManifest, digests: dict[Path, str] | None = None
) -> str:
    """Content hash of everything that can change experiment results.

    Includes input file contents, split/subset parameters, and the trainer
    configuration; deliberately excludes output_dir and max_parallel_jobs,
    which must not affect results. ``digests`` are the input file hashes
    from `_input_digests`, taken now when not given.
    """
    if digests is None:
        digests = _input_digests(manifest)
    payload = {
        "languages": list(manifest.languages),
        "sources": {
            lang: [digests[pivot], digests[target]]
            for lang, (pivot, target) in sorted(manifest.data_sources.items())
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
    hypothesis_path: str | None = None
    wall_time: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "tgt": self.tgt,
            "fraction": self.fraction,
            "status": self.status,
            "bleu": self.bleu,
            "hypothesis_path": self.hypothesis_path,
            "wall_time": self.wall_time,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CellRecord":
        return cls(**d)


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

    def to_json(self) -> str:
        cells = {self.key_str(k): c.to_dict() for k, c in self.cells.items()}
        return json.dumps(
            {"fingerprint": self.fingerprint, "cells": cells},
            indent=2,
            sort_keys=True,
        ) + "\n"

    def save(self, path: Path) -> None:
        _write_text_atomic(path, self.to_json())

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
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        cells = {}
        for record in raw["cells"].values():
            cell = CellRecord.from_dict(record)
            cells[(cell.src, cell.tgt, cell.fraction)] = cell
        return cls(fingerprint=raw["fingerprint"], cells=cells)


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


@dataclass
class _PairData:
    """In-memory working set for one ordered pair."""

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


def _prepare_pair(
    manifest: ExperimentManifest,
    bitexts: dict[str, corpus.PivotBitext],
    digests: dict[Path, str],
    src: str,
    tgt: str,
) -> _PairData:
    """Build (or reuse) the corpus and subset artifacts for one pair."""
    out = manifest.output_dir
    pair_dir = out / "corpus" / f"{src}-{tgt}"
    split_seed = manifest.pair_split_seed(src, tgt)
    spec = corpus.SplitSpec(
        train_ratio=1.0 - manifest.dev_ratio - manifest.test_ratio,
        dev_ratio=manifest.dev_ratio,
        test_ratio=manifest.test_ratio,
        seed=split_seed,
    )
    fingerprint = hashlib.sha256(
        json.dumps(
            {
                "files": [
                    digests[path]
                    for lang in (src, tgt)
                    for path in manifest.data_sources[lang]
                ],
                "ratios": [repr(manifest.dev_ratio), repr(manifest.test_ratio)],
                "seed": split_seed,
            },
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()

    meta_path = pair_dir / "meta.json"
    reuse = False
    if meta_path.is_file():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            reuse = meta.get("fingerprint") == fingerprint
        except (json.JSONDecodeError, OSError):
            reuse = False

    if reuse:
        train_rows = corpus.read_pairs_tsv(pair_dir / "train.tsv")
        test_rows = corpus.read_pairs_tsv(pair_dir / "test.tsv")
    else:
        pair = corpus.build_parallel(bitexts[src], bitexts[tgt])
        train, dev, test = corpus.split_pair(pair, spec)
        corpus.write_split_bundle(
            pair_dir, src, tgt, train, dev, test, spec,
            extra_meta={"fingerprint": fingerprint},
        )
        train_rows = train.pairs
        test_rows = test.pairs

    if manifest.trainer_spec.kind == "external":
        # External commands read the test source from a file.
        src_lines = "\n".join(s for s, _ in test_rows) + "\n"
        test_src_path = pair_dir / "test.src.txt"
        # Bytes, not text: reading text would turn a "\r" into "\n".
        if not test_src_path.is_file() or test_src_path.read_bytes() != src_lines.encode("utf-8"):
            _write_text_atomic(test_src_path, src_lines)

    subset_dir = out / "subsets" / f"{src}-{tgt}"
    subset_seed = manifest.pair_subset_seed(src, tgt)
    subsets: dict[float, sampling.SubsetManifest] = {}
    for fraction in manifest.fractions:
        sm = sampling.subsample(len(train_rows), fraction, subset_seed, src=src, tgt=tgt)
        subsets[fraction] = sm
        sm_path = subset_dir / f"{fraction_slug(fraction)}.json"
        text = sm.to_json() + "\n"
        if not sm_path.is_file() or sm_path.read_text(encoding="utf-8") != text:
            _write_text_atomic(sm_path, text)

    return _PairData(
        src=src,
        tgt=tgt,
        train_pairs=train_rows,
        test_src=[s for s, _ in test_rows],
        test_refs=bleu.References(t for _, t in test_rows),
        subsets=subsets,
    )


def _run_cell(
    manifest: ExperimentManifest, data: _PairData, fraction: float
) -> tuple[float, str]:
    """Train, decode, and score one (pair, fraction) cell.

    Returns (bleu, hypothesis path relative to output_dir) after writing
    the hypothesis file atomically.
    """
    out = manifest.output_dir
    slug = fraction_slug(fraction)
    rel_hyp = f"hyps/{data.src}-{data.tgt}/{slug}.txt"
    hyp_path = out / rel_hyp
    indices = data.subsets[fraction].indices

    if manifest.trainer_spec.kind == "builtin-em":
        table = trainer.train_model1(
            data.em_corpus.subset(indices), manifest.trainer_spec.em_iterations
        )
        hyps = [trainer.decode(table, s) for s in data.test_src]
        _write_text_atomic(hyp_path, "\n".join(hyps) + "\n")
    else:
        subset_tsv = out / "subsets" / f"{data.src}-{data.tgt}" / f"{slug}.train.tsv"
        subset_pairs = [data.train_pairs[i] for i in indices]
        _write_text_atomic(subset_tsv, corpus.pairs_tsv(subset_pairs))
        hyp_path.parent.mkdir(parents=True, exist_ok=True)
        hyps = trainer.run_external(
            manifest.trainer_spec,
            str(subset_tsv),
            str(out / "corpus" / f"{data.src}-{data.tgt}" / "test.src.txt"),
            str(hyp_path),
        )

    score = bleu.corpus_bleu(hyps, data.test_refs).score
    return score, rel_hyp


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


def _open_ledger(
    ledger_path: Path,
    journal_path: Path,
    fingerprint: str,
    expected_keys: list[tuple[str, str, float]],
) -> RunLedger:
    """This run's ledger: ledger.json, with any journal replayed onto it.

    A ledger of another fingerprint is discarded. The cells are exactly
    expected_keys, in order, missing ones pending. A journal left by a
    killed run is folded into ledger.json and deleted, so no torn line can
    get glued to the next one appended.
    """
    ledger: RunLedger | None = None
    if ledger_path.is_file():
        try:
            prev = RunLedger.load(ledger_path)
            if prev.fingerprint == fingerprint:
                ledger = prev
        except (json.JSONDecodeError, KeyError, TypeError, OSError):
            ledger = None
    if ledger is None:
        ledger = RunLedger(fingerprint=fingerprint, cells={})
    replayed = ledger.replay(journal_path)
    # Drop stale cells so |cells| == |pairs| x |fractions| always holds.
    ledger.cells = {
        key: ledger.cells.get(key) or CellRecord(*key) for key in expected_keys
    }
    if replayed:
        ledger.save(ledger_path)
    journal_path.unlink(missing_ok=True)
    return ledger


def run_experiment(manifest: ExperimentManifest) -> RunLedger:
    """Run every (pair, fraction) cell, resuming any earlier progress.

    Cells already marked done (with their hypothesis file still present)
    are skipped. A failing cell is recorded as failed and does not stop
    the others. Each recorded cell is appended to ``ledger.journal`` and
    flushed, so a killed run loses at most the cells it was working on;
    ``ledger.json`` is checkpointed when the number of cells recorded in
    this run is a power of two, so it shows progress, and written in full
    at the end, when the journal is deleted. A pass with nothing to run
    creates no journal. The run holds an exclusive lock on output_dir;
    a second run on the same directory raises `RunInProgressError`
    before it reads or writes anything.
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
        ledger = _open_ledger(ledger_path, journal_path, fingerprint, expected_keys)

        bitexts = {
            lang: corpus.load_pivot_bitext(pivot, target, lang)
            for lang, (pivot, target) in manifest.data_sources.items()
        }
        pair_data = {
            (src, tgt): _prepare_pair(manifest, bitexts, digests, src, tgt)
            for src, tgt in manifest.pairs()
        }

        todo = []
        for key in expected_keys:
            record = ledger.cells[key]
            hyp_ok = (
                record.hypothesis_path is not None
                and (out / record.hypothesis_path).is_file()
            )
            if not (record.status == "done" and hyp_ok):
                todo.append(key)

        # A pair's BLEU memo grows with each of its cells, and its EM index
        # is built at its first builtin cell. The pair's working set is
        # dropped once its last cell is recorded, so only pairs in progress
        # hold them.
        cells_left = Counter((src, tgt) for src, tgt, _ in todo)
        lock = threading.Lock()
        recorded = 0

        def worker(key: tuple[str, str, float]) -> None:
            nonlocal recorded
            src, tgt, fraction = key
            started = time.monotonic()
            try:
                score, rel_hyp = _run_cell(manifest, pair_data[(src, tgt)], fraction)
                record = CellRecord(
                    src=src, tgt=tgt, fraction=fraction, status="done",
                    bleu=score, hypothesis_path=rel_hyp,
                    wall_time=time.monotonic() - started,
                )
            except Exception as exc:  # cell failures must not sink the run
                record = CellRecord(
                    src=src, tgt=tgt, fraction=fraction, status="failed",
                    wall_time=time.monotonic() - started, error=str(exc),
                )
            line = ledger.journal_line(record)
            with lock:
                journal.write(line)
                journal.flush()
                ledger.cells[key] = record
                recorded += 1
                if recorded & (recorded - 1) == 0:
                    ledger.save(ledger_path)
                cells_left[(src, tgt)] -= 1
                if not cells_left[(src, tgt)]:
                    del pair_data[(src, tgt)]

        # Builtin cells hold the interpreter lock, so only external commands
        # gain from running in parallel.
        jobs = manifest.max_parallel_jobs if manifest.trainer_spec.kind == "external" else 1
        if todo:
            with (
                open(journal_path, "wb") as journal,
                ThreadPoolExecutor(max_workers=jobs) as pool,
            ):
                futures = [pool.submit(worker, key) for key in todo]
                for future in as_completed(futures):
                    future.result()

        ledger.save(ledger_path)
        journal_path.unlink(missing_ok=True)

        rows = ["pair,fraction,bleu"]
        for key in sorted(ledger.cells):
            record = ledger.cells[key]
            if record.status == "done":
                rows.append(
                    f"{record.src}-{record.tgt},{repr(float(record.fraction))},"
                    f"{repr(float(record.bleu))}"
                )
        _write_text_atomic(out / "scores.csv", "\n".join(rows) + "\n")
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
    each of three views: written, spoken, and spoken without ro-source
    pairs (drawn as hollow points and flagged in the CSV), and last
    summary.json. Pearson values are null when fewer than 3 scatter points
    are kept or the kept values have no variance; a view with no points at
    all gets no SVG. Returns the summary.
    """
    out = Path(output_dir)
    written, spoken = matrices

    auc_rows = [
        analysis.AucScore(auc=auc_by_pair[pair], pair_id=pair)
        for pair in sorted(auc_by_pair)
    ]
    _write_text_atomic(out / "auc.csv", analysis.auc_to_csv(auc_rows))

    summary: dict = {
        "auc": {analysis.pair_str(pair): auc_by_pair[pair] for pair in sorted(auc_by_pair)},
    }
    for view, matrix, excluded in (
        ("written", written, None),
        ("spoken", spoken, None),
        ("spoken_excl_ro", spoken, "ro"),
    ):
        points = analysis.build_scatter(auc_by_pair, matrix)
        kept = analysis.filter_by_source(points, excluded)
        try:
            r = analysis.pearson(
                [p.auc for p in kept], [p.intelligibility for p in kept]
            )
        except ValueError:
            r = None
        summary[f"pearson_{view}"] = r
        _write_text_atomic(
            out / f"scatter_{view}.csv",
            analysis.scatter_to_csv(points, excluded_source=excluded),
        )
        if not points:
            continue
        r_text = f"Pearson r = {r:.3f}" if r is not None else "Pearson r undefined"
        marked = [
            (p.auc, p.intelligibility, analysis.pair_str(p.pair_id), p.pair_id[0] == excluded)
            for p in points
        ]
        _write_text_atomic(
            out / "plots" / f"scatter_{view}.svg",
            charts.scatter_chart(
                f"AUC vs {matrix.medium} intelligibility ({r_text})",
                "learning-curve AUC",
                f"{matrix.medium} intelligibility",
                marked,
            ),
        )

    _write_text_atomic(
        out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def build_report(
    ledger: RunLedger,
    matrices: tuple[analysis.IntelligibilityMatrix, analysis.IntelligibilityMatrix],
    output_dir: str | Path,
) -> dict:
    """Turn a complete ledger into the full report bundle.

    Refuses to run unless every cell is done: a partial grid would silently
    bias every curve it touches.
    """
    if not ledger.all_done():
        unfinished = [
            ledger.key_str(k) for k, c in sorted(ledger.cells.items())
            if c.status != "done"
        ]
        raise LedgerError(
            f"ledger has {len(unfinished)} unfinished cells: "
            + ", ".join(unfinished[:8])
            + ("..." if len(unfinished) > 8 else "")
        )
    out = Path(output_dir)

    raw_by_pair: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for (src, tgt, fraction), record in ledger.cells.items():
        raw_by_pair.setdefault((src, tgt), []).append((fraction, record.bleu))

    curves = [
        analysis.relative_curve(raw_by_pair[pair], pair_id=pair)
        for pair in sorted(raw_by_pair)
    ]
    _write_text_atomic(out / "curves.csv", analysis.curves_to_csv(curves))

    sources = sorted({pair[0] for pair in raw_by_pair})
    for src in sources:
        series = {
            analysis.pair_str(c.pair_id): [
                (p.fraction * 100.0, p.relative) for p in c.points
            ]
            for c in curves
            if c.pair_id[0] == src
        }
        _write_text_atomic(
            out / "plots" / f"curves_{src}.svg",
            charts.line_chart(
                f"Learning curves from {src}",
                "training data used (%)",
                "relative BLEU",
                series,
            ),
        )

    auc_by_pair = {
        c.pair_id: analysis.auc_trapezoid(c).auc for c in curves
    }
    return report_from_auc(auc_by_pair, matrices, out)
