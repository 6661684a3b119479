"""Beam search: ranking, masking, termination, determinism."""

import math

import numpy as np
import pytest

from treesum import autodiff as ad
from treesum import decoding
from treesum import transition as tr
from treesum.decoding import BeamConfig, Hypothesis
from treesum.model import OP_INDEX, OP_ORDER, Model, ModelError
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


def favour_gen(model, margin):
    # one op-hidden unit saturated at 1 adds ``margin`` to the GEN logit,
    # so random tiny models decode past the 2-op GEN, RR minimum
    model.op_hidden_b.data[0] = 20.0
    model.op_out_w.data[0] = [0.0, 0.0, margin]


class TestExpand:
    """Expanding the beam: the candidates `decoding.rank` returns."""

    def test_initial_expansions_are_all_gen(self):
        m = fresh()
        src = m.prepare_source(["the", "cat"])
        root = Hypothesis(state=m.initial_state())
        for cand in decoding.rank(m, src, [root], k=5, max_words=4):
            assert cand.advance(m).ops[-1].kind == tr.GEN

    def test_k1_gives_single_best(self):
        m = fresh(seed=3)
        src = m.prepare_source(["the", "cat"])
        root = Hypothesis(state=m.initial_state())
        one = decoding.rank(m, src, [root], k=1, max_words=4)
        many = decoding.rank(m, src, [root], k=6, max_words=4)
        assert len(one) == 1
        assert one[0].advance(m).ops == many[0].advance(m).ops

    def test_candidate_scores_sorted_non_increasing(self):
        m = fresh(seed=5)
        src = m.prepare_source(["the", "cat", "sat"])
        root = Hypothesis(state=m.initial_state())
        cands = decoding.rank(m, src, [root], k=8, max_words=4)
        scores = [c.score for c in cands]
        assert scores == sorted(scores, reverse=True)

    def test_child_score_never_exceeds_parent(self):
        m = fresh(seed=7)
        src = m.prepare_source(["the", "cat", "sat"])
        hyp = Hypothesis(state=m.initial_state())
        for _ in range(6):
            children = decoding.rank(m, src, [hyp], k=3, max_words=3)
            for child in children:
                assert child.score <= hyp.score + 1e-12
            hyp = children[0].advance(m)
            if hyp.complete:
                break

    def test_expanding_complete_hypothesis_rejected(self):
        m = fresh()
        src = m.prepare_source(["the", "cat"])
        hyp = Hypothesis(state=m.initial_state())
        hyp = Hypothesis(state=m.step(hyp.state, tr.gen("cat")))
        hyp = Hypothesis(state=m.step(hyp.state, tr.RR))
        with pytest.raises(decoding.DecodingError):
            decoding.rank(m, src, [hyp], k=2, max_words=4)

    def test_top_k_matches_stable_argsort_with_ties(self):
        rng = seeded_rng(7)
        for _ in range(300):
            probs = rng.integers(0, 4, size=int(rng.integers(1, 30))) / 4.0
            k = int(rng.integers(1, 35))
            np.testing.assert_array_equal(
                decoding._top_k(probs, k),
                np.argsort(-probs, kind="stable")[:k])


def reference_beam(model, src, config):
    """The beam before ranking was batched: every live hypothesis's k best
    continuations are stepped, then all of them are sorted.  Scores come
    from the one-state (vector) heads, as training uses them."""
    def candidates(hyp, k):
        s = hyp.state
        valid = tr.valid_ops(s.symbolic, config.max_words)
        ctx = model.attend(s.tree_h, s.seq_h, src.enc)
        ops = ad.softmax(model.op_scores(s.tree_h, s.hist_h,
                                         ctx.context)).data * \
            [kind in valid for kind in OP_ORDER]
        ops = ops / ops.sum()
        words = model.predict_word(s.seq_h, s.tree_h, ctx, src)[0].data * \
            ops[2] if tr.GEN in valid else np.zeros(0)
        out = [(math.log(ops[i]), i, op) for i, op in ((0, tr.RL), (1, tr.RR))
               if ops[i] > 0.0]
        for uid in np.argsort(-words, kind="stable")[:k]:
            if words[uid] <= 0.0:
                break
            out.append((math.log(words[uid]), 2 + int(uid),
                        tr.gen(src.union_token(int(uid)))))
        return sorted(out, key=lambda c: (-c[0], c[1]))[:k]

    def child(hyp, logp, order, op):
        return Hypothesis(model.step(hyp.state, op), hyp.score + logp,
                          hyp.order_key + (order,))

    def best(hyps):
        return min(hyps, key=lambda h: (-h.normalized(config.length_norm),
                                        h.order_key))

    live, done = [Hypothesis(model.initial_state())], []
    for _ in range(config.step_limit):
        kids = [child(h, *c) for h in live
                for c in candidates(h, config.beam_size)]
        done += [h for h in kids if h.complete]
        live = sorted((h for h in kids if not h.complete),
                      key=lambda h: (-h.score, h.order_key))[:config.beam_size]
        if not live or done and best(live).normalized(config.length_norm) \
                <= best(done).normalized(config.length_norm):
            break
    if not done:
        hyp = best(live)
        while not hyp.complete:
            ranked = candidates(hyp, 4)
            reduces = [c for c in ranked if c[2].kind != tr.GEN]
            hyp = child(hyp, *(reduces or ranked)[0])
        done.append(hyp)
    return best(done)


class TestMatchesReferenceBeam:
    CONFIGS = [BeamConfig(beam_size=k, max_words=4) for k in (1, 3, 8)] + [
        BeamConfig(beam_size=3, max_words=8, max_steps=3),
        BeamConfig(beam_size=4, max_words=4, length_norm=0.7)]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=["k1", "k3", "k8", "forced", "norm"])
    def test_same_ops_and_scores_in_float64(self, config):
        lengths = set()
        for seed in range(12):
            m = fresh(seed=seed)
            spread_params(m, seed + 700)
            favour_gen(m, (0.0, 2.5, 3.0)[seed % 3])
            src = m.prepare_source(["the", "cat", "zzz", "sat", "mat"])
            got = decoding.beam_search(m, src, config)
            want = reference_beam(m, src, config)
            assert got.ops == want.ops
            assert abs(got.score - want.score) <= 1e-12
            lengths.add(len(got.ops))
        assert len(lengths) > 1

    def test_steps_only_survivors_and_completions(self, monkeypatch):
        k = 8
        m = fresh(seed=29)
        spread_params(m, 800)
        favour_gen(m, 3.0)
        src = m.prepare_source(["the", "cat", "zzz", "sat", "mat"])
        steps, marks = [], []
        step, rank = Model.step, decoding.rank

        def counting_step(self, state, op):
            steps.append(op)
            return step(self, state, op)

        def counting_rank(*args):
            marks.append(len(steps))
            return rank(*args)

        def no_forcing(*args):
            raise AssertionError("the decode should end naturally")

        monkeypatch.setattr(Model, "step", counting_step)
        monkeypatch.setattr(decoding, "rank", counting_rank)
        monkeypatch.setattr(decoding, "force_complete", no_forcing)
        hyp = decoding.beam_search(m, src, BeamConfig(beam_size=k,
                                                      max_words=5))
        assert hyp.complete
        # K survivors plus at most one completion per live hypothesis
        ends = marks[1:] + [len(steps)]
        per_iteration = [b - a for a, b in zip(marks, ends)]
        assert len(per_iteration) > 2
        assert max(per_iteration) <= 2 * k


class TestBeamSearch:
    def test_decoding_leaves_no_gradient_buffers(self):
        m = fresh()
        src = m.prepare_source(["the", "cat", "sat", "mat"])
        decoding.beam_search(m, src, BeamConfig(beam_size=3, max_words=4))
        decoding.greedy_decode(m, src, BeamConfig(max_words=4))
        assert all(p.grad is None for p in m.parameters())

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

    @pytest.mark.parametrize("length_norm", [float("nan"), float("inf"),
                                             -0.5])
    def test_non_finite_or_negative_length_norm_rejected(self, length_norm):
        with pytest.raises(decoding.DecodingError, match="length_norm"):
            BeamConfig(length_norm=length_norm)


class TestOneStepPath:
    """Beam search, greedy decoding and forced completion share one
    candidate builder and one `Candidate.advance`."""

    def test_force_complete_takes_reduces_at_their_log_probability(self):
        m = fresh(seed=4)
        spread_params(m, 900)
        favour_gen(m, 2.0)
        src = m.prepare_source(["the", "cat", "sat", "mat"])
        state = m.initial_state()
        for word in ("cat", "sat"):
            state = m.step(state, tr.gen(word))
        start = Hypothesis(state=state, score=-1.5)
        reduces = [OP_INDEX[tr.REDUCE_L], OP_INDEX[tr.REDUCE_R]]
        op_probs, word_probs = m.joint_step_distribution([state], src, 5)
        assert op_probs[0][reduces].min() > 0.0
        assert word_probs[0].max() > op_probs[0][reduces].max()
        # greedy would generate; a reduce still makes the top four
        row = [c.op.kind for c in decoding.rank(m, src, [start], 4, 5)]
        assert row[0] == tr.GEN and tr.REDUCE_L in row
        done = decoding.force_complete(m, src, start, max_words=5)
        assert done.complete
        forced = done.ops[len(state.symbolic.ops):]
        assert [op.kind for op in forced][-1] == tr.REDUCE_R
        score = start.score
        for op in forced:
            assert op.kind != tr.GEN
            op_probs, _ = m.joint_step_distribution([state], src, 5)
            p = op_probs[0][OP_INDEX[op.kind]]
            assert p == op_probs[0][reduces].max()   # the likelier reduce
            score += math.log(p)
            state = m.step(state, op)
        assert done.score == score

    def test_ranking_a_complete_hypothesis_raises_model_error(self):
        m = fresh()
        src = m.prepare_source(["the", "cat"])
        live = Hypothesis(state=m.step(m.initial_state(), tr.gen("cat")))
        done = Hypothesis(state=m.step(live.state, tr.RR))
        for beam in ([done], [live, done]):
            with pytest.raises(ModelError, match="terminal state"):
                decoding.rank(m, src, beam, k=2, max_words=4)

    @pytest.mark.parametrize("search", ["beam_search", "greedy_decode"])
    def test_every_step_goes_through_candidate_advance(self, monkeypatch,
                                                        search):
        m = fresh(seed=2)
        spread_params(m, 901)
        favour_gen(m, 6.0)
        src = m.prepare_source(["the", "cat", "sat", "mat"])
        steps, advances = [], []
        step, advance = Model.step, decoding.Candidate.advance

        def counting_step(self, state, op):
            steps.append(op)
            return step(self, state, op)

        def counting_advance(self, model):
            advances.append(self.op)
            return advance(self, model)

        monkeypatch.setattr(Model, "step", counting_step)
        monkeypatch.setattr(decoding.Candidate, "advance", counting_advance)
        # two steps cannot finish a tree that GEN is favoured to grow, so
        # forced completion runs too
        hyp = getattr(decoding, search)(m, src, BeamConfig(
            beam_size=3, max_words=5, max_steps=2))
        assert hyp.complete and len(hyp.ops) > 2
        assert steps == advances
