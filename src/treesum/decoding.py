"""Constrained beam search over the joint operation/word distribution.

Invalid operations are masked before expansion, so every hypothesis stays
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
from .model import OP_INDEX, Model

_RL_ORDER = OP_INDEX[tr.REDUCE_L]
_RR_ORDER = OP_INDEX[tr.REDUCE_R]
_GEN_ORDER_BASE = 2


class DecodingError(Exception):
    pass


@dataclass
class BeamConfig:
    beam_size: int = 10
    max_words: int = 60
    max_steps: int | None = None   # defaults to 2 * max_words
    length_norm: float = 0.0       # score / len**exponent when > 0

    def __post_init__(self):
        if self.beam_size < 1:
            raise DecodingError("beam size must be at least 1")
        if self.max_words < 1:
            raise DecodingError("max_words must be at least 1")
        if self.max_steps is not None and self.max_steps < 2:
            raise DecodingError("max_steps must be at least 2")

    @property
    def step_limit(self):
        return self.max_steps if self.max_steps is not None \
            else 2 * self.max_words


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
        if exponent > 0 and self.ops:
            return self.score / (len(self.ops) ** exponent)
        return self.score


def _candidate_ops(model, src, hyp, k, max_words):
    """Top-k (log-prob, order, op) continuations, best first."""
    op_probs, word_probs = model.joint_step_distribution(
        hyp.state, src, max_words)
    candidates = []
    if op_probs[_RL_ORDER] > 0.0:
        candidates.append((math.log(op_probs[_RL_ORDER]), _RL_ORDER, tr.RL))
    if op_probs[_RR_ORDER] > 0.0:
        candidates.append((math.log(op_probs[_RR_ORDER]), _RR_ORDER, tr.RR))
    if word_probs.size:
        top = np.argsort(-word_probs, kind="stable")[:k]
        for uid in top:
            p = word_probs[uid]
            if p <= 0.0:
                break
            candidates.append((math.log(p), _GEN_ORDER_BASE + int(uid),
                               tr.gen(src.union_token(int(uid)))))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    return candidates[:k]


def expand(model: Model, src, hyp: Hypothesis, k, max_words):
    """The k best successor hypotheses of a live hypothesis."""
    if hyp.complete:
        raise DecodingError("cannot expand a complete hypothesis")
    out = []
    for logp, order, op in _candidate_ops(model, src, hyp, k, max_words):
        out.append(Hypothesis(
            state=model.step(hyp.state, op),
            score=hyp.score + logp,
            order_key=hyp.order_key + (order,),
        ))
    return out


def _best(hyps, exponent):
    return min(hyps, key=lambda h: (-h.normalized(exponent), h.order_key))


def force_complete(model: Model, src, hyp: Hypothesis, max_words):
    """Close an unfinished hypothesis with the most probable reduces."""
    while not hyp.complete:
        ranked = _candidate_ops(model, src, hyp, 1 + len(OP_INDEX), max_words)
        reduces = [c for c in ranked if c[2].kind != tr.GEN]
        logp, order, op = reduces[0] if reduces else ranked[0]
        hyp = Hypothesis(state=model.step(hyp.state, op),
                         score=hyp.score + logp,
                         order_key=hyp.order_key + (order,))
    return hyp


def beam_search(model: Model, src, config: BeamConfig) -> Hypothesis:
    """Best complete hypothesis under the joint distribution.

    Keeps the beam_size best live hypotheses per step, moves terminal ones
    to a completed pool, and stops when every live candidate scores below
    the best completed one or the step limit is reached.  A fallback
    force-completion guarantees an output.
    """
    k = config.beam_size
    live = [Hypothesis(state=model.initial_state())]
    completed = []
    for _ in range(config.step_limit):
        candidates = []
        for hyp in live:
            candidates.extend(expand(model, src, hyp, k, config.max_words))
        completed.extend(c for c in candidates if c.complete)
        live = sorted((c for c in candidates if not c.complete),
                      key=lambda h: (-h.score, h.order_key))[:k]
        if not live:
            break
        if completed:
            best_done = _best(completed, config.length_norm)
            best_live = _best(live, config.length_norm)
            if best_live.normalized(config.length_norm) <= \
                    best_done.normalized(config.length_norm):
                break
    if not completed:
        best_live = _best(live, config.length_norm)
        completed.append(force_complete(model, src, best_live,
                                        config.max_words))
    return _best(completed, config.length_norm)


def greedy_decode(model: Model, src, config: BeamConfig) -> Hypothesis:
    """Argmax chain over the masked joint distribution."""
    hyp = Hypothesis(state=model.initial_state())
    for _ in range(config.step_limit):
        logp, order, op = _candidate_ops(model, src, hyp, 1,
                                         config.max_words)[0]
        hyp = Hypothesis(state=model.step(hyp.state, op),
                         score=hyp.score + logp,
                         order_key=hyp.order_key + (order,))
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
