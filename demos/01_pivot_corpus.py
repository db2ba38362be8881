"""
Building a parallel corpus through a pivot language
===================================================

Two corpora that were each translated from the same pivot language can be
joined into a direct parallel corpus: whenever both sides translate the
same pivot sentence, their translations are paired with each other.

Run with: python3 demos/01_pivot_corpus.py
"""

from mtlearn import corpus

##############################################################################
# Each language arrives as a bitext: its own sentences line-aligned to the
# pivot sentences they translate. The two bitexts below share some pivot
# sentences but not all, and one pivot sentence repeats.

spanish = corpus.PivotBitext(
    lang="es",
    pivot_lines=[
        "the house is red",
        "i see the dog",
        "the dog sleeps",
        "i see the dog",
        "nobody translated this one twice",
    ],
    target_lines=[
        "la casa es roja",
        "veo al perro",
        "el perro duerme",
        "veo al perro otra vez",
        "frase solitaria",
    ],
)

portuguese = corpus.PivotBitext(
    lang="pt",
    pivot_lines=[
        "i see the dog",
        "the house is red",
        "i see the dog",
        "a sentence only portuguese has",
    ],
    target_lines=[
        "vejo o cachorro",
        "a casa e vermelha",
        "vejo o cachorro de novo",
        "frase exclusiva",
    ],
)

##############################################################################
# build_parallel matches pivot sentences after Unicode and whitespace
# normalization. A pivot sentence that appears twice on both sides yields
# two pairs, matched in order of occurrence; pivot sentences present on
# only one side are dropped.

pair = corpus.build_parallel(spanish, portuguese)
print(f"matched {len(pair)} sentence pairs ({pair.src} -> {pair.tgt})")
for src_sentence, tgt_sentence in pair.pairs:
    print(f"  {src_sentence!r:34} <-> {tgt_sentence!r}")

##############################################################################
# The provenance list records which original line numbers were joined, so
# every pair can be traced back to its source documents.

print("\nprovenance (es line, pt line):", pair.provenance)

##############################################################################
# Larger corpora are split into train/dev/test with a seeded shuffle. The
# split is deterministic for a given seed and keeps sentence order inside
# each part. Ten sentences is the minimum, so pad the toy corpus by
# repeating the pivot story with numbered actors.

pivot_lines = [f"speaker {i} opens the window" for i in range(12)]
big_es = corpus.PivotBitext(
    lang="es",
    pivot_lines=pivot_lines,
    target_lines=[f"el hablante {i} abre la ventana" for i in range(12)],
)
big_pt = corpus.PivotBitext(
    lang="pt",
    pivot_lines=pivot_lines,
    target_lines=[f"o falante {i} abre a janela" for i in range(12)],
)

big_pair = corpus.build_parallel(big_es, big_pt)
spec = corpus.SplitSpec(dev_ratio=0.1, test_ratio=0.2, seed=13)
train, dev, test = corpus.split_pair(big_pair, spec)
print(f"\nsplit {len(big_pair)} pairs -> {len(train)} train, {len(dev)} dev, {len(test)} test")
print("first training pair:", train.pairs[0])
