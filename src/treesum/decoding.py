"""Constrained beam search over the joint operation/word distribution.

Each beam step runs in three phases.  Score: every live hypothesis is one
row of a single batched pass through attention and both prediction heads
(`Model.joint_step_distribution`).  Rank: each row's k best continuations
are found with a partial sort over the union vocabulary and built into
`Candidate`s (`_candidates`), and the candidates of the whole beam are
ranked together (`rank`).  Step: only the K best unfinished candidates
are advanced.  A candidate that completes a tree waits unstepped in the
completed pool, and only the one returned is advanced; whether a reduce
completes is known from the symbolic stack before any neural work.
Greedy decoding takes each row's best candidate.  Forced completion
takes the likelier valid reduce straight from the op row of the joint
distribution (RL on a tie), however likely a word is, at that op's
unrenormalised log-probability; only a stack with no tree above R, where
no reduce is valid, generates.  All three step through
`Candidate.advance`, the one place a stepped `Hypothesis` is built.

Invalid operations are masked before ranking, so every hypothesis stays
executable by construction and reaching the terminal reduce onto R is the
natural end of a sequence; no separate end-of-sequence symbol exists.
Scores are accumulated log-probabilities; ties break by operation order
(REDUCE_L, REDUCE_R, then GEN by union word index), which makes decoding
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transition as tr
from .model import OP_INDEX, DecodingError, Model, check_field_types

_RL_ORDER = OP_INDEX[tr.REDUCE_L]
_RR_ORDER = OP_INDEX[tr.REDUCE_R]
_GEN_ORDER_BASE = OP_INDEX[tr.GEN]


@dataclass
class BeamConfig:
    beam_size: int = 10
    max_words: int = 60
    max_steps: int | None = None   # defaults to 2 * max_words
    length_norm: float = 0.0       # score / len**exponent when > 0

    def __post_init__(self):
        counts = ("beam_size", "max_words") + (
            () if self.max_steps is None else ("max_steps",))
        check_field_types(self, DecodingError, integers=counts,
                          reals=("length_norm",))
        if self.beam_size < 1:
            raise DecodingError("beam size must be at least 1")
        if self.max_words < 1:
            raise DecodingError("max_words must be at least 1")
        if self.max_steps is not None and self.max_steps < 2:
            raise DecodingError("max_steps must be at least 2")
        if not (math.isfinite(self.length_norm) and self.length_norm >= 0):
            raise DecodingError("length_norm must be finite and not "
                                "negative")

    @property
    def step_limit(self):
        return self.max_steps if self.max_steps is not None \
            else 2 * self.max_words


def _normalized(score, length, exponent):
    """``score / length**exponent`` when the exponent is positive."""
    if exponent > 0 and length:
        return score / (length ** exponent)
    return score


@dataclass
class Hypothesis:
    """One beam candidate: joint decoder state plus accumulated score."""

    state: object               # model.DecoderState
    score: float = 0.0
    order_key: tuple = ()       # deterministic tie-break material

    @property
    def ops(self):
        return self.state.symbolic.ops

    @property
    def complete(self):
        return self.state.is_terminal

    def normalized(self, exponent):
        return _normalized(self.score, len(self.ops), exponent)


@dataclass
class Candidate:
    """A scored continuation of a live hypothesis, not yet stepped."""

    parent: Hypothesis
    op: tr.ParserOp
    score: float
    order: int

    @property
    def complete(self):
        """Whether the op reduces the last tree onto R: only RR over one
        tree above R does."""
        return self.op == tr.RR and len(self.parent.state.symbolic.stack) == 2

    @property
    def order_key(self):
        return self.parent.order_key + (self.order,)

    def normalized(self, exponent):
        """`Hypothesis.normalized` of the hypothesis `advance` builds."""
        return _normalized(self.score, len(self.parent.ops) + 1, exponent)

    def advance(self, model: Model) -> Hypothesis:
        """Step the parent by the op; the one place a stepped `Hypothesis`
        is built."""
        return Hypothesis(state=model.step(self.parent.state, self.op),
                          score=self.score, order_key=self.order_key)


def _top_k(probs, k):
    """Indices of the k largest entries, by value descending and then
    index ascending: the head of a stable argsort of ``-probs``."""
    if k < probs.size:
        kth = np.partition(probs, probs.size - k)[probs.size - k]
        above = np.flatnonzero(probs > kth)
        tied = np.flatnonzero(probs == kth)[:k - above.size]
        index = np.concatenate([above, tied])
    else:
        index = np.arange(probs.size)
    return index[np.lexsort((index, -probs[index]))]


def _row_candidates(op_probs, word_probs, k, src):
    """Top-k (log-prob, order, op) continuations of one row, best first."""
    candidates = []
    if op_probs[_RL_ORDER] > 0.0:
        candidates.append((math.log(op_probs[_RL_ORDER]), _RL_ORDER, tr.RL))
    if op_probs[_RR_ORDER] > 0.0:
        candidates.append((math.log(op_probs[_RR_ORDER]), _RR_ORDER, tr.RR))
    for uid in _top_k(word_probs, k):
        p = word_probs[uid]
        if p <= 0.0:
            break
        candidates.append((math.log(p), _GEN_ORDER_BASE + int(uid),
                           tr.gen(src.union_token(int(uid)))))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    return candidates[:k]


def _candidates(model, src, hyps, k, max_words):
    """Per live hypothesis, its top-k continuations as `Candidate`s in
    `_row_candidates` order; one scoring pass for all."""
    op_probs, word_probs = model.joint_step_distribution(
        [hyp.state for hyp in hyps], src, max_words)
    return [[Candidate(hyp, op, hyp.score + logp, order)
             for logp, order, op in _row_candidates(ops, words, k, src)]
            for hyp, ops, words in zip(hyps, op_probs, word_probs)]


def rank(model: Model, src, live, k, max_words):
    """Each live hypothesis's k best continuations as `Candidate`s,
    ranked across the whole beam, best first."""
    ranked = [c for row in _candidates(model, src, live, k, max_words)
              for c in row]
    ranked.sort(key=lambda c: (-c.score, c.order_key))
    return ranked


def _best(hyps, exponent):
    return min(hyps, key=lambda h: (-h.normalized(exponent), h.order_key))


def force_complete(model: Model, src, hyp: Hypothesis, max_words):
    """Close an unfinished hypothesis with reduces.

    Each step takes the likelier valid reduce of the op row of
    `Model.joint_step_distribution`, RL on a tie, however likely the best
    word is, and adds that op's log-probability, not renormalised over the
    reduces.  Only a stack with no tree above R, where no reduce is valid,
    takes its best GEN instead.
    """
    while not hyp.complete:
        depth = len(hyp.state.symbolic.stack)   # R included
        if depth < 2:
            candidate = _candidates(model, src, [hyp], 1, max_words)[0][0]
        else:
            op_probs = model.joint_step_distribution(
                [hyp.state], src, max_words)[0][0]
            rl, rr = op_probs[_RL_ORDER], op_probs[_RR_ORDER]
            if depth > 2 and rl >= rr:   # RL needs two trees above R
                order, op, p = _RL_ORDER, tr.RL, rl
            else:
                order, op, p = _RR_ORDER, tr.RR, rr
            # a reduce whose mass underflows to 0 still closes the tree
            logp = math.log(p) if p > 0.0 else -math.inf
            candidate = Candidate(hyp, op, hyp.score + logp, order)
        hyp = candidate.advance(model)
    return hyp


def beam_search(model: Model, src, config: BeamConfig) -> Hypothesis:
    """Best complete hypothesis under the joint distribution.

    Keeps the beam_size best live hypotheses per step, moves candidates
    that complete a tree to a completed pool unstepped, and stops when
    every live candidate scores below the best completed one or the step
    limit is reached; only the best completed candidate is stepped.  A
    fallback force-completion guarantees an output.
    """
    k = config.beam_size
    live = [Hypothesis(state=model.initial_state())]
    completed = []
    for _ in range(config.step_limit):
        ranked = rank(model, src, live, k, config.max_words)
        completed.extend(c for c in ranked if c.complete)
        survivors = [c for c in ranked if not c.complete][:k]
        live = [c.advance(model) for c in survivors]
        if not live:
            break
        if completed:
            best_done = _best(completed, config.length_norm)
            best_live = _best(live, config.length_norm)
            if best_live.normalized(config.length_norm) <= \
                    best_done.normalized(config.length_norm):
                break
    if not completed:
        return force_complete(model, src, _best(live, config.length_norm),
                              config.max_words)
    return _best(completed, config.length_norm).advance(model)


def greedy_decode(model: Model, src, config: BeamConfig) -> Hypothesis:
    """Argmax chain over the masked joint distribution."""
    hyp = Hypothesis(state=model.initial_state())
    for _ in range(config.step_limit):
        hyp = _candidates(model, src, [hyp], 1,
                          config.max_words)[0][0].advance(model)
        if hyp.complete:
            return hyp
    return force_complete(model, src, hyp, config.max_words)


def decode_output(hyp: Hypothesis):
    """Summary tokens and dependency tree of a complete hypothesis."""
    if not hyp.complete:
        raise DecodingError("hypothesis is not complete")
    summary = tr.extract_summary(hyp.ops)
    tree = tr.execute(hyp.ops)
    return summary, tree
