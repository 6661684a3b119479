"""Beam search: expansion, masking, termination, determinism."""

import numpy as np
import pytest

from treesum import decoding
from treesum import transition as tr
from treesum.decoding import BeamConfig, Hypothesis
from helpers import WALKTHROUGH_OPS, seeded_rng
from test_model import tiny_model


def fresh(seed=13, out_words=("cat", "sat", "mat")):
    m = tiny_model(hidden=6, embed=6, seed=seed, out_words=out_words,
                   dtype=np.float64)
    return m


def spread_params(model, seed):
    # generic random point so decode paths are not near-uniform
    rng = seeded_rng(seed)
    for p in model.parameters():
        p.data = rng.uniform(-0.4, 0.4, size=p.data.shape)


class TestExpand:
    def test_initial_expansions_are_all_gen(self):
        m = fresh()
        src = m.prepare_source(["the", "cat"])
        root = Hypothesis(state=m.initial_state())
        for hyp in decoding.expand(m, src, root, k=5, max_words=4):
            assert hyp.ops[-1].kind == tr.GEN

    def test_k1_gives_single_best(self):
        m = fresh(seed=3)
        src = m.prepare_source(["the", "cat"])
        root = Hypothesis(state=m.initial_state())
        one = decoding.expand(m, src, root, k=1, max_words=4)
        many = decoding.expand(m, src, root, k=6, max_words=4)
        assert len(one) == 1
        assert one[0].ops == many[0].ops

    def test_candidate_scores_sorted_non_increasing(self):
        m = fresh(seed=5)
        src = m.prepare_source(["the", "cat", "sat"])
        root = Hypothesis(state=m.initial_state())
        hyps = decoding.expand(m, src, root, k=8, max_words=4)
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)

    def test_child_score_never_exceeds_parent(self):
        m = fresh(seed=7)
        src = m.prepare_source(["the", "cat", "sat"])
        hyp = Hypothesis(state=m.initial_state())
        for _ in range(6):
            children = decoding.expand(m, src, hyp, k=3, max_words=3)
            for child in children:
                assert child.score <= hyp.score + 1e-12
            hyp = children[0]
            if hyp.complete:
                break

    def test_expanding_complete_hypothesis_rejected(self):
        m = fresh()
        src = m.prepare_source(["the", "cat"])
        hyp = Hypothesis(state=m.initial_state())
        hyp = Hypothesis(state=m.step(hyp.state, tr.gen("cat")))
        hyp = Hypothesis(state=m.step(hyp.state, tr.RR))
        with pytest.raises(decoding.DecodingError):
            decoding.expand(m, src, hyp, k=2, max_words=4)


class TestBeamSearch:
    def test_k1_equals_greedy_exactly(self):
        for seed in range(12):
            m = fresh(seed=seed)
            spread_params(m, seed + 100)
            src = m.prepare_source(["the", "cat", "sat", "mat"])
            config = BeamConfig(beam_size=1, max_words=5)
            beam = decoding.beam_search(m, src, config)
            greedy = decoding.greedy_decode(m, src, config)
            assert beam.ops == greedy.ops
            assert abs(beam.score - greedy.score) < 1e-12

    def test_every_decode_executes_without_error(self):
        count = 0
        for seed in range(25):
            m = fresh(seed=seed)
            spread_params(m, seed + 200)
            src = m.prepare_source(["the", "cat", "sat"])
            hyp = decoding.beam_search(
                m, src, BeamConfig(beam_size=3, max_words=4))
            assert hyp.complete
            summary, tree = decoding.decode_output(hyp)
            assert list(tree.words) == summary
            count += 1
        assert count == 25

    def test_wider_beam_never_worse(self):
        m = fresh(seed=17)
        spread_params(m, 300)
        src = m.prepare_source(["the", "cat", "sat", "mat"])
        narrow = decoding.beam_search(m, src, BeamConfig(beam_size=1,
                                                         max_words=4))
        wide = decoding.beam_search(m, src, BeamConfig(beam_size=8,
                                                       max_words=4))
        assert wide.score >= narrow.score - 1e-12

    def test_deterministic_across_runs(self):
        m = fresh(seed=19)
        spread_params(m, 400)
        src = m.prepare_source(["the", "cat", "sat"])
        config = BeamConfig(beam_size=4, max_words=4)
        first = decoding.beam_search(m, src, config)
        second = decoding.beam_search(m, src, config)
        assert first.ops == second.ops
        assert first.score == second.score

    def test_step_limit_with_forced_completion(self):
        m = fresh(seed=23)
        src = m.prepare_source(["the", "cat"])
        # max_steps too small to ever finish naturally
        config = BeamConfig(beam_size=2, max_words=8, max_steps=3)
        hyp = decoding.beam_search(m, src, config)
        assert hyp.complete
        tr.execute(hyp.ops)  # must not raise


class TestDecodeOutput:
    def test_walkthrough_sequence(self):
        m = fresh(out_words=("a", "man", "escaped", "from", "prison"))
        hyp = Hypothesis(state=m.initial_state())
        for op in WALKTHROUGH_OPS:
            hyp = Hypothesis(state=m.step(hyp.state, op))
        summary, tree = decoding.decode_output(hyp)
        assert summary == ["a", "man", "escaped", "from", "prison"]
        assert tree.heads == (2, 3, 0, 5, 3)

    def test_single_word(self):
        m = fresh()
        hyp = Hypothesis(state=m.initial_state())
        hyp = Hypothesis(state=m.step(hyp.state, tr.gen("cat")))
        hyp = Hypothesis(state=m.step(hyp.state, tr.RR))
        summary, tree = decoding.decode_output(hyp)
        assert summary == ["cat"]
        assert tree.heads == (0,)

    def test_incomplete_rejected(self):
        m = fresh()
        hyp = Hypothesis(state=m.initial_state())
        with pytest.raises(decoding.DecodingError, match="not complete"):
            decoding.decode_output(hyp)

    def test_tree_words_equal_summary_on_random_models(self):
        checked = 0
        for seed in range(40):
            m = fresh(seed=seed)
            spread_params(m, seed + 500)
            src = m.prepare_source(["the", "cat", "sat", "mat"])
            hyp = decoding.greedy_decode(
                m, src, BeamConfig(beam_size=1, max_words=5))
            summary, tree = decoding.decode_output(hyp)
            assert list(tree.words) == summary
            checked += 1
        assert checked == 40


class TestBeamConfig:
    def test_default_step_limit(self):
        config = BeamConfig(beam_size=10, max_words=7)
        assert config.step_limit == 14

    def test_invalid_sizes_rejected(self):
        with pytest.raises(decoding.DecodingError):
            BeamConfig(beam_size=0)
        with pytest.raises(decoding.DecodingError):
            BeamConfig(max_words=0)
        with pytest.raises(decoding.DecodingError):
            BeamConfig(max_steps=1)
