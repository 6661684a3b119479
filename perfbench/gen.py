"""Seeded input generator for the treesum benchmark.

Everything here depends only on numpy and the seed, never on the package
under test, so the inputs stay valid whatever the program does.  The same
seed gives byte-identical records and files.

Word universe: ``w00000`` ... ranked by frequency.  Summary words are drawn
from the output vocabulary (the top ``OUT_WORDS`` ranks) or copied from the
source; source tokens are Zipfian over a wider universe, so some of them
fall outside the output vocabulary and become union-vocabulary extensions
when copied.
"""

from __future__ import annotations

import json
import os

import numpy as np

SPECIALS = ("<pad>", "<unk>", "<root>")
OUT_VOCAB_SIZE = 10000          # including the three specials
IN_VOCAB_SIZE = 3000
OUT_WORDS = OUT_VOCAB_SIZE - len(SPECIALS)
IN_WORDS = IN_VOCAB_SIZE - len(SPECIALS)
UNIVERSE = 20000
SOURCE_LEN = 100
COPY_SHARE = 0.3
EMBED_DIM = 100
EMBED_WORDS = 10000
CLUSTER = 8                     # words per embedding cluster

TOY_NAMES = ("alice", "bob", "carol", "dave", "erin",
             "frank", "grace", "heidi", "ivan", "judy")
TOY_VERBS = ("saw", "met", "called", "helped", "praised")
TOY_OBJECTS = ("dog", "cat", "bird", "horse", "fish")
TOY_PLACES = ("park", "lab", "store", "yard")


def word(rank):
    return "w%05d" % rank


def output_tokens():
    """Token list of the 10k output vocabulary, specials first."""
    return list(SPECIALS) + [word(r) for r in range(OUT_WORDS)]


def input_tokens():
    """Token list of the 3k input vocabulary, specials first."""
    return list(SPECIALS) + [word(r) for r in range(IN_WORDS)]


def _zipf(size, exponent=1.0):
    p = 1.0 / np.arange(1, size + 1) ** exponent
    return p / p.sum()


_SOURCE_P = _zipf(UNIVERSE)
_SUMMARY_P = _zipf(OUT_WORDS)


def zipf_words(rng, n, universe_p):
    return [word(int(r)) for r in rng.choice(len(universe_p), n, p=universe_p)]


def random_heads(rng, n):
    """Heads of a random projective single-root tree with exactly n words.

    Walks a shift-reduce system directly: SHIFT pushes the next word,
    LEFT makes the top the head of the element below it, RIGHT makes the
    element below the head of the top.  RIGHT onto the root is allowed
    only once every word is shifted, so the length is exact and no
    rejection is needed.  Stack-based construction keeps arcs nested,
    hence projective.
    """
    heads = [0] * n
    stack = [0]
    shifted = 0
    while True:
        options = []
        if shifted < n:
            options.append("shift")
        if len(stack) >= 3:
            options += ["left", "right"]
        elif len(stack) == 2 and shifted == n:
            options.append("right")
        if not options:
            break
        choice = options[int(rng.integers(len(options)))]
        if choice == "shift":
            shifted += 1
            stack.append(shifted)
        elif choice == "left":
            top = stack.pop()
            heads[stack.pop() - 1] = top
            stack.append(top)
        else:
            top = stack.pop()
            heads[top - 1] = stack[-1]
            if stack == [0]:
                break
    return heads


def paper_record(rng, n_words):
    """One paper-shaped pair: a 100-token source and an n-word summary
    whose words are copied from the source with probability COPY_SHARE."""
    source = zipf_words(rng, SOURCE_LEN, _SOURCE_P)
    summary = []
    for _ in range(n_words):
        if rng.random() < COPY_SHARE:
            summary.append(source[int(rng.integers(SOURCE_LEN))])
        else:
            summary.append(zipf_words(rng, 1, _SUMMARY_P)[0])
    return {"source": source, "summary": summary,
            "heads": random_heads(rng, n_words)}


def spread_lengths(rng, count, lo=20, hi=40):
    """``count`` lengths evenly spaced over [lo, hi], in seeded order.

    Every seed gets the same multiset, so the amount of work per run does
    not depend on the seed while the records themselves do."""
    lengths = np.linspace(lo, hi, count).round().astype(int).tolist()
    rng.shuffle(lengths)
    return lengths


def paper_set(seed, stream, lengths):
    rng = np.random.default_rng([seed, stream])
    return [paper_record(rng, n) for n in lengths]


def toy_corpus(n=50):
    """The desk-scale toy corpus: a unique three-word summary per source
    with a fixed verb-rooted parse.

    It is the same for every benchmark seed, so the model trained on it and
    its decodes are too; run-to-run differences in the CLI workload then
    come from the machine, not from which pairs were drawn."""
    combos = [(a, v, o) for a in TOY_NAMES for v in TOY_VERBS
              for o in TOY_OBJECTS]
    rng = np.random.default_rng(13)
    order = rng.permutation(len(combos))
    records = []
    for i, k in enumerate(order[:n]):
        name, verb, obj = combos[int(k)]
        place = TOY_PLACES[i % len(TOY_PLACES)]
        source = (f"{name} quietly {verb} the {obj} near the {place} "
                  "yesterday").split()
        records.append({"source": source, "summary": [name, verb, obj],
                        "heads": [2, 0, 2]})
    return records


def _perturb(rng, ref, share=0.4):
    """A decoded-looking summary: the reference with a share of its words
    replaced and a fresh projective parse of the same length."""
    words = [w if rng.random() >= share else zipf_words(rng, 1, _SUMMARY_P)[0]
             for w in ref["summary"]]
    return words, random_heads(rng, len(words))


def eval_set(seed, count):
    """Decoded, reference and source-parse records for ``treesum eval``.

    Source parses cover the first 60-100 source tokens with a random
    projective parse."""
    rng = np.random.default_rng([seed, 11])
    refs = [paper_record(rng, n) for n in spread_lengths(rng, count)]
    decoded, parses = [], []
    for ref, n in zip(refs, spread_lengths(rng, count, 60, SOURCE_LEN)):
        words, heads = _perturb(rng, ref)
        decoded.append({"summary": " ".join(words),
                        "heads": " ".join(map(str, heads))})
        parses.append({"words": ref["source"][:n],
                       "heads": random_heads(rng, n)})
    return decoded, refs, parses


def embedding_lines(seed):
    """Clustered word vectors for the top EMBED_WORDS ranks, so lenient
    matching at sigma < 1 finds pairs that strict matching does not."""
    rng = np.random.default_rng([seed, 13])
    centers = rng.normal(size=(EMBED_WORDS // CLUSTER + 1, EMBED_DIM))
    noise = rng.normal(scale=0.5, size=(EMBED_WORDS, EMBED_DIM))
    vectors = centers[np.arange(EMBED_WORDS) // CLUSTER] + noise
    return [word(r) + " " + " ".join("%.4f" % v for v in vectors[r])
            for r in range(EMBED_WORDS)]


def corpus_line(record):
    return json.dumps({"source": " ".join(record["source"]),
                       "summary": " ".join(record["summary"]),
                       "heads": list(record["heads"])})


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def write_cli_inputs(seed, directory, pairs, decodes, eval_records,
                     embeddings=True):
    """All files the CLI pipeline reads; returns their paths by role.

    The corpus holds the first ``pairs`` toy pairs and the decode input
    the first ``decodes`` of their sources."""
    os.makedirs(directory, exist_ok=True)
    names = [("corpus", "toy.jsonl"), ("test", "test.jsonl"),
             ("decoded", "eval_decoded.jsonl"),
             ("reference", "eval_reference.jsonl"),
             ("parses", "eval_parses.jsonl")]
    if embeddings:
        names.append(("embeddings", "vectors.txt"))
    paths = {role: os.path.join(directory, name) for role, name in names}
    toy = toy_corpus(pairs)
    write_lines(paths["corpus"], [corpus_line(r) for r in toy])
    write_lines(paths["test"], [json.dumps({"source": " ".join(r["source"])})
                                for r in toy[:decodes]])
    decoded, refs, parses = eval_set(seed, eval_records)
    write_lines(paths["decoded"], [json.dumps(d) for d in decoded])
    write_lines(paths["reference"], [corpus_line(r) for r in refs])
    write_lines(paths["parses"], [json.dumps(p) for p in parses])
    if embeddings:
        write_lines(paths["embeddings"], embedding_lines(seed))
    return paths
