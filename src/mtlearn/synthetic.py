"""Synthetic cipher-language family with known vocabulary overlap.

Transformer-scale experiments on real Romance data are out of reach on a
desktop, so end-to-end behavior is exercised on a constructed family
instead: one shared "pivot" corpus of sentences over an artificial
vocabulary, and five languages that are word-substitution ciphers of it.
Each language diverges on a controlled fraction of the vocabulary (its
divergent words get a language-specific form; all other words get a form
shared by the whole family). The vocabulary overlap between two languages
is therefore known exactly, and it plays the role of an intelligibility
score: high overlap should mean an easier translation task and a higher
learning-curve AUC.

Word shapes keep ciphered tokens intact under the scorer's tokenizer:
base word "w0012" becomes "ccw0012" when language cc diverges on it and
"zzw0012" when it keeps the shared form ("zz" is reserved and never a
language name).

Each language's divergent set is one seeded shuffle of the vocabulary.
`write_family` and `overlap_matrix` draw the five sets once per call and
derive every cipher and all 20 overlaps from them, so a family costs 10
shuffles: 5 for the divergent sets and 5 for the languages' coverage.
The pivot sentences are drawn once, as word lists, and every language
ciphers the same lists.
"""

from __future__ import annotations

import bisect
import json
import math
from pathlib import Path

from ._rng import SplitMix64, derive_seed, permutation

LANGUAGES = ("aa", "bb", "cc", "dd", "ee")

# Fraction of the vocabulary each language rewrites into its own forms.
# Spread out so the 10 unordered pairs get well-separated overlap values.
DIVERGENCE = {"aa": 0.05, "bb": 0.18, "cc": 0.32, "dd": 0.46, "ee": 0.60}

DEFAULT_VOCAB_SIZE = 900
DEFAULT_N_SENTENCES = 2200
DEFAULT_COVERAGE = 0.97
DEFAULT_SEED = 42
ZIPF_EXPONENT = 1.15
MIN_LEN = 3
MAX_LEN = 11
# The run settings the emitted manifest.json gives.
EM_ITERATIONS = 3
MAX_PARALLEL_JOBS = 2


def _zipf_cumulative(vocab_size: int) -> list[float]:
    weights = [1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(vocab_size)]
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)
    return cum


def _pivot_words(n_sentences: int, vocab: list[str], seed: int) -> list[list[str]]:
    """The pivot sentences, Zipf-weighted over ``vocab``, as word lists whose
    words are the vocabulary's own str objects, so the lists cost no string
    of their own."""
    cum = _zipf_cumulative(len(vocab))
    total = cum[-1]
    rng = SplitMix64(derive_seed(seed, "pivot"))
    sentences = []
    for _ in range(n_sentences):
        length = MIN_LEN + rng.next_below(MAX_LEN - MIN_LEN + 1)
        sentences.append([
            vocab[bisect.bisect_left(cum, rng.next_float() * total)]
            for _ in range(length)
        ])
    return sentences


def divergent_indices(lang: str, vocab_size: int, seed: int) -> set[int]:
    """Vocabulary indices this language rewrites into its own forms."""
    if lang not in DIVERGENCE:
        raise ValueError(f"unknown synthetic language {lang!r}")
    k = round(DIVERGENCE[lang] * vocab_size)
    order = permutation(vocab_size, derive_seed(seed, "divergent", lang))
    return set(order[:k])


def _divergent_sets(vocab_size: int, seed: int) -> dict[str, set[int]]:
    """Every language's divergent set, one shuffle each."""
    return {lang: divergent_indices(lang, vocab_size, seed) for lang in LANGUAGES}


def _overlaps(divergent: dict[str, set[int]], vocab_size: int) -> dict[tuple[str, str], float]:
    """The exact fraction of base words that each two ciphers map
    identically. A word survives into both languages unchanged only when
    neither diverges on it, so the overlap is 1 - |D_a union D_b| / V."""
    return {
        (a, b): 1.0 - len(divergent[a] | divergent[b]) / vocab_size
        for a in LANGUAGES
        for b in LANGUAGES
        if a != b
    }


def overlap_matrix(
    vocab_size: int = DEFAULT_VOCAB_SIZE, seed: int = DEFAULT_SEED
) -> dict[tuple[str, str], float]:
    """Overlap for all 20 ordered pairs (symmetric by construction)."""
    return _overlaps(_divergent_sets(vocab_size, seed), vocab_size)


def write_family(
    out_dir: str | Path,
    seed: int = DEFAULT_SEED,
    n_sentences: int = DEFAULT_N_SENTENCES,
    vocab_size: int = DEFAULT_VOCAB_SIZE,
    coverage: float = DEFAULT_COVERAGE,
) -> dict:
    """Write pivot/target files for all 5 languages plus a run manifest.

    Each language covers a seeded `coverage` fraction of the pivot lines
    (so pairs share roughly coverage**2 * n_sentences sentences) and its
    target side is the ciphered pivot. The emitted manifest.json points the
    pipeline at these files and embeds the overlap matrix, scaled to
    percent, as both intelligibility matrices.

    Returns a dict with manifest_path, languages, and the overlap matrix.
    Raises ValueError unless 0 < coverage <= 1, n_sentences >= 1 and
    vocab_size >= 1.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage!r}")
    if n_sentences < 1:
        raise ValueError(f"n_sentences must be at least 1, got {n_sentences!r}")
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be at least 1, got {vocab_size!r}")
    out_dir = Path(out_dir)
    data_dir = out_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)

    # Each sentence's words are drawn once and ciphered into every language.
    vocab = [f"w{i:04d}" for i in range(vocab_size)]
    pivot_words = _pivot_words(n_sentences, vocab, seed)
    pivot = [" ".join(words) for words in pivot_words]
    n_keep = math.ceil(coverage * n_sentences)

    divergent = _divergent_sets(vocab_size, seed)
    data_sources = {}
    for lang in LANGUAGES:
        keep = sorted(permutation(n_sentences, derive_seed(seed, "coverage", lang))[:n_keep])
        encode = {
            w: (lang + w) if i in divergent[lang] else ("zz" + w) for i, w in enumerate(vocab)
        }.__getitem__
        pivot_lines = [pivot[i] for i in keep]
        target_lines = [" ".join(map(encode, pivot_words[i])) for i in keep]
        pivot_path = data_dir / f"{lang}.pivot.txt"
        target_path = data_dir / f"{lang}.txt"
        pivot_path.write_text("\n".join(pivot_lines) + "\n", encoding="utf-8")
        target_path.write_text("\n".join(target_lines) + "\n", encoding="utf-8")
        data_sources[lang] = {
            "pivot": str(pivot_path.relative_to(out_dir)),
            "target": str(target_path.relative_to(out_dir)),
        }

    overlap = _overlaps(divergent, vocab_size)
    percent = {f"{a}-{b}": round(v * 100.0, 4) for (a, b), v in overlap.items()}
    manifest = {
        "languages": list(LANGUAGES),
        "data_sources": data_sources,
        "split": {"dev_ratio": 0.1, "test_ratio": 0.2},
        "seed": seed,
        "trainer": {"kind": "builtin-em", "em_iterations": EM_ITERATIONS},
        "max_parallel_jobs": MAX_PARALLEL_JOBS,
        "output_dir": "out",
        "matrices": {"written": percent, "spoken": percent},
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return {
        "manifest_path": str(manifest_path),
        "languages": list(LANGUAGES),
        "overlap": overlap,
    }
