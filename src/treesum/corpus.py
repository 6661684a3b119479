"""Dataset ingestion, vocabularies, and oracle linearization.

The native corpus format is JSON lines: one object per line with a
``source`` string, a ``summary`` string and a ``heads`` integer list
giving the head position of every summary token (0 = root).  Text is
whitespace-tokenized and lowercased on load.  Reference parses come from
external parser output; non-projective or multi-root parses are dropped
at filter time rather than repaired, so the oracle stays exact.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

from . import transition as tr

PAD, UNK, ROOT = "<pad>", "<unk>", "<root>"
SPECIALS = (PAD, UNK, ROOT)

INPUT_MIN_FREQ = 5
OUTPUT_MAX_SIZE = 10000

DEFAULT_MAX_SOURCE_LEN = 100
DEFAULT_MAX_SUMMARY_LEN = 60


class CorpusError(ValueError):
    pass


@dataclass
class Example:
    source: list
    summary: list
    heads: list

    def tree(self) -> tr.DependencyTree:
        return tr.DependencyTree(words=tuple(self.summary),
                                 heads=tuple(self.heads))


class Vocabulary:
    """Bijective token/id map with PAD, UNK and ROOT prepended."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        if list(self.tokens[:len(SPECIALS)]) != list(SPECIALS):
            raise CorpusError("vocabulary must start with the special tokens")
        self._ids = {token: i for i, token in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise CorpusError("duplicate tokens in vocabulary")

    @property
    def pad_id(self):
        return 0

    @property
    def unk_id(self):
        return 1

    @property
    def root_id(self):
        return 2

    def id(self, token) -> int:
        return self._ids.get(token, self.unk_id)

    def id_or_none(self, token):
        return self._ids.get(token)

    def token(self, i) -> str:
        return self.tokens[i]

    def __contains__(self, token):
        return token in self._ids

    def __len__(self):
        return len(self.tokens)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()


def build_vocab(examples, role, min_freq=None, max_size=None) -> Vocabulary:
    """Count tokens on the training split and assemble a vocabulary.

    ``role`` selects the side and the default rule: the input vocabulary
    keeps source tokens seen at least 5 times; the output vocabulary keeps
    the 10k most frequent summary tokens (frequency ties broken
    lexicographically).
    """
    examples = list(examples)
    if not examples:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    if role == "input":
        counts = Counter(t for ex in examples for t in ex.source)
        min_freq = INPUT_MIN_FREQ if min_freq is None else min_freq
        kept = sorted(t for t, c in counts.items() if c >= min_freq)
    elif role == "output":
        counts = Counter(t for ex in examples for t in ex.summary)
        max_size = OUTPUT_MAX_SIZE if max_size is None else max_size
        if max_size < 0:   # a negative slice end would drop the rarest
            raise CorpusError(f"vocabulary size {max_size} is negative")
        if min_freq is not None:
            counts = Counter({t: c for t, c in counts.items()
                              if c >= min_freq})
        ranked = sorted(counts.items(), key=lambda tc: (-tc[1], tc[0]))
        kept = [t for t, _ in ranked[:max_size]]
    else:
        raise CorpusError(f"unknown vocabulary role {role!r}")
    kept = [t for t in kept if t not in SPECIALS]
    return Vocabulary(list(SPECIALS) + kept)


def tokenize(text: str) -> list:
    return text.lower().split()


def text_lines(path, error):
    """(line number from 1, line) of a UTF-8 text file.  A byte sequence
    that is not UTF-8 raises ``error`` naming the file and its line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            # text mode decodes in blocks, so find the line in bytes
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as bad:
                        raise error(f"{path}:{lineno}: not UTF-8: "
                                    f"{bad}") from e
            raise error(f"{path}: not UTF-8: {e}") from e


def parse_heads(where, heads, error=CorpusError):
    """Head values as integers; any other value raises ``error`` naming
    ``where``."""
    try:   # via str, so 1.5 and true are refused
        return [int(str(h)) for h in heads]
    except ValueError:
        raise error(f"{where}: heads must be integers")


def load_corpus(path, require_heads=True) -> list:
    """Parse the JSON-lines corpus format, reporting the offending line
    number for malformed records."""
    examples = []
    for lineno, line in text_lines(path, CorpusError):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {e}")
        if not isinstance(record, dict) or "source" not in record:
            raise CorpusError(f"{path}:{lineno}: missing 'source' field")
        for field in ("source", "summary"):
            if not isinstance(record.get(field, ""), str):
                raise CorpusError(f"{path}:{lineno}: {field!r} must be "
                                  f"a string")
        source = tokenize(record["source"])
        summary = tokenize(record.get("summary", ""))
        heads = record.get("heads")
        if require_heads or heads is not None:
            if heads is None:
                raise CorpusError(f"{path}:{lineno}: missing 'heads' field")
            if not isinstance(heads, list):
                raise CorpusError(f"{path}:{lineno}: 'heads' must be a list")
            if len(heads) != len(summary):
                raise CorpusError(
                    f"{path}:{lineno}: {len(heads)} heads for "
                    f"{len(summary)} summary tokens")
            heads = parse_heads(f"{path}:{lineno}", heads)
        else:
            heads = []
        examples.append(Example(source=source, summary=summary,
                                heads=heads))
    return examples


def save_corpus(path, examples):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({
                "source": " ".join(ex.source),
                "summary": " ".join(ex.summary),
                "heads": list(ex.heads),
            }) + "\n")


def linearize(example: Example):
    """Oracle operation sequence of an example's summary tree."""
    return tr.oracle(example.tree())


def filter_examples(examples, max_source_len=DEFAULT_MAX_SOURCE_LEN,
                    max_summary_len=DEFAULT_MAX_SUMMARY_LEN):
    """Drop examples the transition system cannot reach.

    Returns (retained, stats); stats counts rejections by reason so the
    drop rate is visible in logs.
    """
    retained = []
    stats = Counter()
    for ex in examples:
        if not ex.source or len(ex.source) > max_source_len:
            stats["source_length"] += 1
            continue
        if not ex.summary or len(ex.summary) > max_summary_len:
            stats["summary_length"] += 1
            continue
        try:
            tree = ex.tree()
        except tr.MultiRootError:
            stats["multi_root"] += 1
            continue
        except tr.CyclicHeadsError:
            stats["cyclic"] += 1
            continue
        except tr.TransitionError:
            stats["malformed"] += 1
            continue
        if not tr.is_projective(tree):
            stats["non_projective"] += 1
            continue
        retained.append(ex)
    return retained, dict(stats)


def convert_conll(conll_path, sources_path, out_path):
    """Convert token/head column blocks plus a parallel source file.

    ``conll_path`` holds blank-line-separated sentence blocks; within a
    block each line is a tab- or space-separated row whose first column is
    the token and second column the integer head index.  Rows with more
    columns (full CoNLL) are accepted; columns beyond the second are
    ignored unless there are 10, in which case CoNLL-X/U column positions
    (FORM=2nd, HEAD=7th) are used.  ``sources_path`` carries one source
    text per line, aligned with the blocks.
    """
    blocks = []
    current = []
    for lineno, line in text_lines(conll_path, CorpusError):
        line = line.rstrip("\n")
        if not line.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        if line.lstrip().startswith("#"):
            continue
        cols = line.split("\t") if "\t" in line else line.split()
        if len(cols) >= 10:
            # full CoNLL-X/U row; multi-word and empty nodes have
            # range/decimal ids and carry no head
            if "-" in cols[0] or "." in cols[0]:
                continue
            token, head = cols[1], cols[6]
        elif len(cols) >= 2:
            token, head = cols[0], cols[1]
        else:
            raise CorpusError(
                f"{conll_path}:{lineno}: unparseable row {line!r}")
        try:
            current.append((token, int(head)))
        except ValueError:
            raise CorpusError(
                f"{conll_path}:{lineno}: non-integer head in row {line!r}")
    if current:
        blocks.append(current)
    sources = [line.strip() for _, line in text_lines(sources_path,
                                                      CorpusError)
               if line.strip()]
    if len(sources) != len(blocks):
        raise CorpusError(
            f"{sources_path}: {len(sources)} sources for "
            f"{len(blocks)} parsed summaries")
    examples = []
    for source, block in zip(sources, blocks):
        examples.append(Example(
            source=tokenize(source),
            summary=[t.lower() for t, _ in block],
            heads=[h for _, h in block],
        ))
    save_corpus(out_path, examples)
    return examples
