"""Shift-reduce transition system over summary words.

Three operations drive both summary generation and parsing:

  GEN(w)    push a one-word tree for the new summary word w
  REDUCE_L  merge the top two trees; the top tree's root becomes the head
  REDUCE_R  merge the top two trees; the top tree's root becomes the dependent

The stack starts with the root symbol R at the bottom.  Word positions are
1-based and R sits at position 0.  REDUCE_R with R as the second element
attaches the last remaining tree under R and is the only way to terminate;
an empty summary is not derivable because R alone never offers REDUCE_R.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

GEN = "GEN"
REDUCE_L = "REDUCE_L"
REDUCE_R = "REDUCE_R"

OP_KINDS = (GEN, REDUCE_L, REDUCE_R)


class TransitionError(ValueError):
    """Violation of the transition system's constraints."""


class NonProjectiveError(TransitionError):
    """Tree has crossing arcs and is unreachable by this system."""


class MultiRootError(TransitionError):
    """Head map does not have exactly one word attached to R."""


class CyclicHeadsError(TransitionError):
    """Head map contains a cycle."""


@dataclass(frozen=True)
class ParserOp:
    """A single decoder operation; ``word`` is set iff ``kind`` is GEN."""

    kind: str
    word: str | None = None

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise TransitionError(f"unknown op kind {self.kind!r}")
        if self.kind == GEN and self.word is None:
            raise TransitionError("GEN requires a word")
        if self.kind != GEN and self.word is not None:
            raise TransitionError(f"{self.kind} takes no word")

    def __str__(self):
        if self.kind == GEN:
            return f"GEN({self.word})"
        return "RL" if self.kind == REDUCE_L else "RR"


def gen(word: str) -> ParserOp:
    return ParserOp(GEN, word)


RL = ParserOp(REDUCE_L)
RR = ParserOp(REDUCE_R)


@dataclass(frozen=True)
class DependencyTree:
    """Unlabeled dependency tree over summary words.

    ``heads[i]`` is the head position of the word at position i+1, with 0
    denoting R.  Construction enforces shape, a single root child and
    acyclicity; projectivity is a separate query (`is_projective`) because
    non-projective trees are representable, just not derivable.
    """

    words: tuple[str, ...]
    heads: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "heads", tuple(int(h) for h in self.heads))
        n = len(self.words)
        if len(self.heads) != n:
            raise TransitionError(
                f"heads length {len(self.heads)} != words length {n}")
        if n == 0:
            raise TransitionError("empty tree")
        for i, h in enumerate(self.heads):
            if not 0 <= h <= n:
                raise TransitionError(f"head {h} of word {i + 1} out of range")
            if h == i + 1:
                raise CyclicHeadsError(f"word {i + 1} is its own head")
        roots = [i + 1 for i, h in enumerate(self.heads) if h == 0]
        if len(roots) != 1:
            raise MultiRootError(
                f"expected exactly one root child, found {len(roots)}")
        # Walk each head chain; more than n steps without reaching R is a cycle.
        for start in range(1, n + 1):
            pos, steps = start, 0
            while pos != 0:
                pos = self.heads[pos - 1]
                steps += 1
                if steps > n:
                    raise CyclicHeadsError(f"cycle through word {start}")

    def __len__(self):
        return len(self.words)

    def dependents(self, pos: int) -> list[int]:
        """Positions whose head is ``pos`` (0 queries R), left to right."""
        return [i + 1 for i, h in enumerate(self.heads) if h == pos]

    def arcs(self) -> frozenset[tuple[int, int]]:
        """All (head, dependent) position pairs, including the root arc."""
        return frozenset((h, i + 1) for i, h in enumerate(self.heads))


@dataclass(frozen=True)
class StackState:
    """Immutable snapshot of the decoder's symbolic state.

    ``stack`` holds the root position of every stacked subtree, bottom
    first; entry 0 is always R.  ``arcs`` is the set of (head, dependent)
    pairs accumulated so far.
    """

    stack: tuple[int, ...] = (0,)
    generated: tuple[str, ...] = ()
    ops: tuple[ParserOp, ...] = ()
    arcs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    @property
    def is_terminal(self) -> bool:
        return len(self.stack) == 1 and len(self.generated) > 0

    def __str__(self):
        return f"<stack={list(self.stack)} ops={ops_to_text(self.ops)!r}>"


def valid_ops(state: StackState, max_words: int) -> frozenset[str]:
    """Op kinds applicable to ``state``; empty iff the state is complete.

    GEN is offered while the word budget remains; REDUCE_L needs two
    non-root stack elements; REDUCE_R needs one element above R (with R as
    the second element it is the terminal action).
    """
    if state.is_terminal:
        return frozenset()
    kinds = set()
    if len(state.generated) < max_words:
        kinds.add(GEN)
    if len(state.stack) >= 3:
        kinds.add(REDUCE_L)
    if len(state.stack) >= 2:
        kinds.add(REDUCE_R)
    return frozenset(kinds)


def apply_op(state: StackState, op: ParserOp) -> StackState:
    """Apply one operation, returning the successor state.

    Rejects structurally invalid ops; callers that pre-filter through
    `valid_ops` never trigger the error paths.
    """
    if state.is_terminal:
        raise TransitionError(f"cannot apply {op} to a terminal state")
    if op.kind == GEN:
        pos = len(state.generated) + 1
        return StackState(
            stack=state.stack + (pos,),
            generated=state.generated + (op.word,),
            ops=state.ops + (op,),
            arcs=state.arcs,
        )
    if len(state.stack) < 2:
        raise TransitionError(f"{op} needs two stack elements, have only R")
    top, second = state.stack[-1], state.stack[-2]
    if op.kind == REDUCE_L:
        if second == 0:
            raise TransitionError("REDUCE_L cannot take R as a dependent")
        head, dep, new_top = top, second, top
    else:
        head, dep, new_top = second, top, second
    return StackState(
        stack=state.stack[:-2] + (new_top,),
        generated=state.generated,
        ops=state.ops + (op,),
        arcs=state.arcs | {(head, dep)},
    )


def execute(ops) -> DependencyTree:
    """Run a complete operation sequence and return the resulting tree.

    Raises with the failing index if an op is invalid mid-sequence, and
    rejects sequences that do not end in a terminal state.
    """
    state = run_prefix(ops)
    if not state.is_terminal:
        raise TransitionError("incomplete sequence: stack not reduced to one tree")
    heads = [0] * len(state.generated)
    for head, dep in state.arcs:
        heads[dep - 1] = head
    return DependencyTree(words=state.generated, heads=tuple(heads))


def run_prefix(ops) -> StackState:
    """Execute a (possibly partial) operation prefix.

    Every op must be valid under `valid_ops`, with the prefix's own GEN
    count as the word cap; raises with the failing index otherwise.
    """
    state = StackState()
    n_words = sum(1 for op in ops if op.kind == GEN)
    for i, op in enumerate(ops):
        if op.kind not in valid_ops(state, n_words):
            raise TransitionError(f"invalid op {op} at index {i}: {state}")
        state = apply_op(state, op)
    return state


def extract_summary(ops) -> list[str]:
    """Words of the GEN operations, in order.  Works on any prefix."""
    return [op.word for op in ops if op.kind == GEN]


def is_projective(tree: DependencyTree) -> bool:
    """True iff no two arcs cross with R drawn at position 0.

    Uses the contiguous-yield criterion: every word's subtree must cover a
    contiguous span of positions.  With a single root child this also rules
    out crossings involving the root arc.
    """
    n = len(tree)
    depth = [0] * (n + 1)
    for i in range(1, n + 1):
        pos = i
        while pos != 0:
            pos = tree.heads[pos - 1]
            depth[i] += 1
    lo = list(range(n + 1))
    hi = list(range(n + 1))
    size = [1] * (n + 1)
    # Deepest-first so every subtree is finalized before its head absorbs it.
    for i in sorted(range(1, n + 1), key=lambda p: -depth[p]):
        if hi[i] - lo[i] + 1 != size[i]:
            return False
        h = tree.heads[i - 1]
        if h != 0:
            lo[h] = min(lo[h], lo[i])
            hi[h] = max(hi[h], hi[i])
            size[h] += size[i]
    return True


def oracle(tree: DependencyTree) -> list[ParserOp]:
    """Linearize a projective tree into its unique eager operation sequence.

    Words are generated left to right; a REDUCE fires as soon as the
    dependent's whole subtree is complete, which reproduces reference
    traces exactly.  Raises NonProjectiveError for unreachable trees.
    """
    if not is_projective(tree):
        raise NonProjectiveError("tree is non-projective")
    n = len(tree)
    gold_deps = [len(tree.dependents(p)) for p in range(n + 1)]
    attached = [0] * (n + 1)
    ops: list[ParserOp] = []
    state = StackState()

    def complete(pos: int) -> bool:
        return attached[pos] == gold_deps[pos]

    next_word = 1
    while not state.is_terminal:
        op = None
        if len(state.stack) >= 2:
            top, second = state.stack[-1], state.stack[-2]
            # heads[dep] == 0 plays the role of "head is R" when second is R.
            if (second != 0 and tree.heads[second - 1] == top
                    and complete(second)):
                op, head = RL, top
            elif tree.heads[top - 1] == second and complete(top):
                op, head = RR, second
        if op is None:
            if next_word > n:
                raise NonProjectiveError(
                    "stuck: no reduce applies and no words remain")
            op = gen(tree.words[next_word - 1])
            next_word += 1
        else:
            attached[head] += 1
        state = apply_op(state, op)
        ops.append(op)
    return ops


_GEN_TOKEN = re.compile(r"^GEN\((.*)\)$")


def ops_to_text(ops) -> str:
    """Serialize ops as space-separated ``GEN(word)``, ``RL``, ``RR`` tokens."""
    return " ".join(str(op) for op in ops)


def ops_from_text(text: str) -> list[ParserOp]:
    """Inverse of `ops_to_text`; raises on unrecognized tokens."""
    ops = []
    for token in text.split():
        if token == "RL":
            ops.append(RL)
        elif token == "RR":
            ops.append(RR)
        else:
            m = _GEN_TOKEN.match(token)
            if m is None:
                raise TransitionError(f"unrecognized op token {token!r}")
            ops.append(gen(m.group(1)))
    return ops
