"""Architecture forward passes: encoder, composition, states, heads."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from treesum import autodiff as ad
from treesum import decoding
from treesum import transition as tr
from treesum.corpus import SPECIALS, Vocabulary
from treesum.model import (
    OP_INDEX,
    Model,
    ModelConfig,
    ModelError,
    SourceError,
)
from helpers import (
    WALKTHROUGH_OPS,
    attention_scores_composite,
    encode_per_token,
    grad_check,
    history_state,
    predict_word_dense,
    seeded_rng,
    seq_state,
    tree_state,
)


def tiny_vocab(words):
    return Vocabulary(list(SPECIALS) + sorted(set(words)))


def tiny_model(hidden=6, embed=6, src_words=("the", "cat", "sat", "mat"),
               out_words=("cat", "sat"), seed=13, dtype=np.float64):
    in_vocab = tiny_vocab(src_words)
    out_vocab = tiny_vocab(out_words)
    config = ModelConfig(
        input_vocab_size=len(in_vocab),
        output_vocab_size=len(out_vocab),
        hidden_size=hidden,
        embed_size=embed,
        encoder_layers=2,
    )
    return Model(config, in_vocab, out_vocab, seed=seed, dtype=dtype)


class TestEncoder:
    def test_single_token_source_gives_one_state(self):
        m = tiny_model()
        enc = m.encode([["cat"]])[0]
        assert len(enc.tokens) == 1
        assert enc.matrix.shape == (1, 2 * m.config.hidden_size)

    def test_zero_weights_give_zero_states(self):
        m = tiny_model()
        for p in m.parameters():
            p.data[...] = 0.0
        enc = m.encode([["the", "cat", "sat"]])[0]
        np.testing.assert_array_equal(enc.matrix.data, 0.0)

    def test_reversal_changes_states(self):
        m = tiny_model()
        fwd = m.encode([["the", "cat", "sat"]])[0].matrix.data
        rev = m.encode([["sat", "cat", "the"]])[0].matrix.data
        assert np.abs(fwd - rev[::-1]).max() > 1e-8

    def test_empty_source_is_an_error(self):
        with pytest.raises(ModelError, match="empty"):
            tiny_model().encode([[]])[0]

    def test_over_long_source_is_an_error(self):
        m = tiny_model()
        with pytest.raises(ModelError, match="exceeds"):
            m.encode([["cat"] * (m.config.max_source_len + 1)])[0]

    def test_unknown_tokens_map_to_unk(self):
        m = tiny_model()
        a = m.encode([["qqq"]])[0].matrix.data
        b = m.encode([["zzz"]])[0].matrix.data
        np.testing.assert_array_equal(a, b)


class TestLockstepEncoder:
    """A batch of sources runs through the encoder in lockstep: one
    `lstm_cell` per step, layer and direction over the running rows."""

    @staticmethod
    def _model():
        m = tiny_model(hidden=5, embed=4, seed=31)
        point = seeded_rng(32)
        for p in m.parameters():
            p.data = point.uniform(-0.6, 0.6, size=p.shape)
        return m

    @staticmethod
    def _sources(m, lengths):
        rng = seeded_rng(33)
        words = ["the", "cat", "sat", "mat", "qqq"]
        return [[words[k] for k in rng.integers(len(words), size=n)]
                for n in lengths]

    def test_batch_matches_each_source_alone(self):
        m = self._model()
        sources = self._sources(m, [1, 5, 3, 5, m.config.max_source_len])
        batch = m.encode(sources)
        assert len(batch) == len(sources)
        for tokens, enc in zip(sources, batch):
            alone = m.encode([tokens])[0]
            matrix, keys = encode_per_token(m, tokens)
            assert enc.matrix.shape == (len(tokens), 2 * 5)
            for got in (enc, alone):
                np.testing.assert_allclose(got.matrix.data, matrix,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(got.keys.data, keys,
                                           rtol=0, atol=1e-12)
            assert (enc.union_ids.tolist(), enc.extensions) == (
                alone.union_ids.tolist(), alone.extensions)

    def test_reordering_the_batch_changes_no_state(self):
        m = self._model()
        sources = self._sources(m, [2, 6, 1, 6, 4])
        first = m.encode(sources)
        for order in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            again = m.encode([sources[i] for i in order])
            for i, enc in zip(order, again):
                np.testing.assert_allclose(enc.matrix.data,
                                           first[i].matrix.data,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(enc.keys.data, first[i].keys.data,
                                           rtol=0, atol=1e-12)

    def test_one_cell_per_step_layer_and_direction(self, monkeypatch):
        m = self._model()
        rows = []
        cell = ad.lstm_cell

        def counted(x, h, c, params):
            rows.append(x.shape[0])
            return cell(x, h, c, params)
        monkeypatch.setattr(ad, "lstm_cell", counted)
        m.encode(self._sources(m, [3, 1, 5, 3]))
        # per layer and direction: 4 rows, then 3 after the 1-token source
        # ends, then 1 after both 3-token sources end
        assert rows == [4, 3, 3, 1, 1] * 2 * m.config.encoder_layers

    @pytest.mark.parametrize("bad, reason", [
        ([], "empty"),
        (["cat"] * 101, "exceeds configured maximum 100"),
        ("cat", "not a string")])
    def test_rejected_source_is_named_by_position(self, bad, reason):
        m = self._model()
        with pytest.raises(SourceError, match=f"source 2: .*{reason}") as e:
            m.encode([["the"], ["cat", "sat"], bad, []])
        assert e.value.index == 2

    def test_single_source_error_names_no_position(self):
        # prepare_source serves decoding, one record at a time
        with pytest.raises(ModelError,
                           match="^cannot encode an empty source$"):
            self._model().prepare_source([])

    def test_empty_batch_is_an_error(self):
        with pytest.raises(ModelError, match="no sources"):
            self._model().encode([])


class TestCompose:
    def test_zero_params_give_zero_vector(self):
        m = tiny_model()
        m.compose_w.data[...] = 0.0
        out = m.compose(m.word_embedding("cat"), m.word_embedding("sat"))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_outputs_strictly_inside_unit_interval(self):
        m = tiny_model(seed=99)
        out = m.compose(m.word_embedding("cat"), m.word_embedding("sat"))
        assert (np.abs(out.data) < 1.0).all()

    def test_gradient_matches_finite_differences(self):
        m = tiny_model()
        rng = seeded_rng(21)
        head = ad.Tensor(rng.normal(size=6))
        dep = ad.Tensor(rng.normal(size=6))

        def f():
            return ad.total(ad.mul(m.compose(head, dep), m.attn_v))

        err = grad_check(f, [m.compose_w, m.compose_b, m.attn_v])
        assert err < 1e-6


class TestStackLstm:
    def test_initial_stack_unrolls_one_step_over_root(self):
        m = tiny_model()
        state = m.initial_state()
        assert len(state.tree_states) == 2
        np.testing.assert_array_equal(
            state.tree_h.data, tree_state(m, [m.root_embed]).data)

    def test_walkthrough_step7_unrolls_three_stack_elements(self):
        m = tiny_model(out_words=("a", "man", "escaped", "from", "prison"))
        state = m.initial_state()
        for op in WALKTHROUGH_OPS[:6]:  # ... RL GEN(from): stack R | tree | from
            state = m.step(state, op)
        assert len(state.symbolic.stack) == 3
        assert len(state.stack_reps) == 3
        np.testing.assert_allclose(
            state.tree_h.data, tree_state(m, state.stack_reps).data,
            atol=1e-12)

    def test_incremental_equals_from_scratch_over_random_walk(self):
        m = tiny_model(out_words=tuple("w%d" % i for i in range(8)))
        rng = seeded_rng(31)
        applied = 0
        state = m.initial_state()
        worst = 0.0
        while applied < 1000:
            kinds = tr.valid_ops(state.symbolic, max_words=6)
            if not kinds:
                state = m.initial_state()
                continue
            kinds = sorted(kinds)
            kind = kinds[rng.integers(len(kinds))]
            if kind == tr.GEN:
                op = tr.gen("w%d" % rng.integers(8))
            else:
                op = tr.RL if kind == tr.REDUCE_L else tr.RR
            state = m.step(state, op)
            applied += 1
            scratch = tree_state(m, state.stack_reps)
            worst = max(worst, np.abs(state.tree_h.data - scratch.data).max())
        assert worst < 1e-6


class TestSeqAndHistoryStates:
    def test_empty_prefix_is_learned_initial_state(self):
        m = tiny_model()
        state = m.initial_state()
        np.testing.assert_array_equal(state.seq_h.data, m.seq_init_h.data)
        np.testing.assert_array_equal(state.hist_h.data, m.hist_init_h.data)

    def test_walkthrough_carry_rule_at_reduce_steps(self):
        m = tiny_model(out_words=("a", "man", "escaped", "from", "prison"))
        state = m.initial_state()
        seen = []
        for op in WALKTHROUGH_OPS:
            prev = state.seq_h
            state = m.step(state, op)
            if op.kind != tr.GEN:
                assert state.seq_h is prev  # bitwise carry, same object
            seen.append(state)
        # five words generated in total: from-scratch agrees
        np.testing.assert_allclose(
            state.seq_h.data,
            seq_state(m, ["a", "man", "escaped", "from", "prison"]).data,
            atol=1e-12)

    def test_history_differs_when_one_op_differs(self):
        m = tiny_model(out_words=("a", "b", "c"))
        h1 = history_state(m, tr.ops_from_text("GEN(a) GEN(b) RL")).data
        h2 = history_state(m, tr.ops_from_text("GEN(a) GEN(b) RR")).data
        assert np.abs(h1 - h2).max() > 1e-9

    def test_incremental_history_matches_from_scratch(self):
        m = tiny_model(out_words=("a", "man", "escaped", "from", "prison"))
        state = m.initial_state()
        for op in WALKTHROUGH_OPS[:6]:
            state = m.step(state, op)
        np.testing.assert_allclose(
            state.hist_h.data, history_state(m, WALKTHROUGH_OPS[:6]).data,
            atol=1e-12)


class TestAttention:
    def test_single_token_source_gets_full_attention(self):
        m = tiny_model()
        src = m.prepare_source(["cat"])
        state = m.initial_state()
        ctx = m.attend(state.tree_h, state.seq_h, src)
        np.testing.assert_allclose(ctx.alpha.data, [1.0])

    def test_identical_encoder_states_get_uniform_attention(self):
        m = tiny_model()
        src = m.prepare_source(["cat", "cat", "cat"])
        # force identical rows regardless of position
        first = src.matrix.data[0].copy()
        matrix = ad.Tensor(np.tile(first, (3, 1)))
        src = dataclasses.replace(src, matrix=matrix,
                                  keys=ad.matmul(matrix, m.attn_enc_w))
        state = m.initial_state()
        ctx = m.attend(state.tree_h, state.seq_h, src)
        np.testing.assert_allclose(ctx.alpha.data, [1 / 3] * 3, atol=1e-12)

    def test_alpha_sums_to_one_and_context_is_weighted_sum(self):
        m = tiny_model()
        src = m.prepare_source(["the", "cat", "sat", "mat"])
        state = m.initial_state()
        ctx = m.attend(state.tree_h, state.seq_h, src)
        assert abs(ctx.alpha.data.sum() - 1.0) < 1e-6
        expected = ctx.alpha.data @ src.matrix.data
        np.testing.assert_allclose(ctx.context.data, expected, atol=1e-12)

    def test_context_gradient_matches_finite_differences(self):
        m = tiny_model(hidden=4, embed=4)
        src_tokens = ["the", "cat", "sat"]
        probe = ad.Tensor(seeded_rng(41).normal(size=2 * 4))

        def f():
            src = m.prepare_source(src_tokens)
            state = m.initial_state()
            ctx = m.attend(state.tree_h, state.seq_h, src)
            return ad.total(ad.mul(ctx.context, probe))

        params = [m.attn_dec_w, m.attn_enc_w, m.attn_v, m.src_embed]
        err = grad_check(f, params)
        assert err < 1e-6


    def test_tape_saves_no_rows_by_source_by_hidden_array(self):
        # attention_scores recomputes its tanh in backward, so after a
        # two-row attend no backward closure holds a (rows, source_len,
        # hidden) array; the primitives it replaced kept the tanh output
        m = tiny_model()
        src = m.prepare_source(["the", "cat", "sat", "mat"])
        states = [m.initial_state()]
        states.append(m.step(states[-1], tr.gen("cat")))
        tree_h = ad.stack_rows([s.tree_h for s in states])
        seq_h = ad.stack_rows([s.seq_h for s in states])

        def saved_ndims(tape):
            return {cell.cell_contents.ndim for node in tape.nodes
                    for cell in node.backward.__closure__ or ()
                    if isinstance(cell.cell_contents, np.ndarray)}

        with ad.Tape() as tape:
            ctx = m.attend(tree_h, seq_h, src)
            loss = ad.total(ctx.context)
            assert saved_ndims(tape) and max(saved_ndims(tape)) < 3
            tape.backward(loss)
        assert np.abs(m.attn_dec_w.grad).max() > 0
        with ad.Tape() as tape:
            dec = ad.matmul(ad.concat([tree_h, seq_h], axis=-1),
                            m.attn_dec_w)
            attention_scores_composite(src.keys, dec, m.attn_v)
            assert 3 in saved_ndims(tape)


class TestPredictOp:
    def test_zero_params_give_uniform_distribution(self):
        m = tiny_model()
        for p in m.parameters():
            p.data[...] = 0.0
        src = m.prepare_source(["cat"])
        state = m.initial_state()
        ctx = m.attend(state.tree_h, state.seq_h, src)
        probs = ad.softmax(m.op_scores(state.tree_h, state.hist_h,
                                       ctx.context))
        np.testing.assert_allclose(probs.data, [1 / 3] * 3, atol=1e-12)

    def test_sums_to_one(self):
        m = tiny_model(seed=77)
        src = m.prepare_source(["the", "cat"])
        state = m.initial_state()
        ctx = m.attend(state.tree_h, state.seq_h, src)
        probs = ad.softmax(m.op_scores(state.tree_h, state.hist_h,
                                       ctx.context))
        assert abs(probs.data.sum() - 1.0) < 1e-6

    def test_gradient_matches_finite_differences(self):
        m = tiny_model(hidden=4, embed=4)

        def f():
            src = m.prepare_source(["the", "cat"])
            state = m.initial_state()
            ctx = m.attend(state.tree_h, state.seq_h, src)
            probs = ad.softmax(m.op_scores(state.tree_h, state.hist_h,
                                           ctx.context))
            return ad.log(ad.pick(probs, 2))

        params = [m.op_hidden_w, m.op_hidden_b, m.op_out_w, m.hist_init_h]
        err = grad_check(f, params)
        assert err < 1e-4


class TestPredictWord:
    def test_mixture_formula_hand_value(self):
        # word at two source positions with alpha 0.3/0.2, switch 0.5,
        # vocab probability 0.1 -> 0.5*0.1 + 0.5*0.5 = 0.30
        m = tiny_model()
        alpha = np.array([0.3, 0.2, 0.5])
        uid = m.output_vocab.id("cat")
        vocab_dist = np.full(len(m.output_vocab), 0.0)
        vocab_dist[uid] = 0.1
        copy = np.zeros((len(m.output_vocab), 3))
        copy[uid, 0] = 1.0
        copy[uid, 1] = 1.0
        copy[m.output_vocab.id("sat"), 2] = 1.0
        lam = 0.5
        mixed = lam * vocab_dist + (1 - lam) * (copy @ alpha)
        assert abs(mixed[uid] - 0.30) < 1e-12

    def test_switch_at_one_recovers_vocab_distribution(self):
        m = tiny_model()
        m.switch_b.data[...] = 1e3  # saturate the sigmoid switch
        src = m.prepare_source(["the", "cat"])
        state = m.initial_state()
        ctx = m.attend(state.tree_h, state.seq_h, src)
        dist, switch = m.predict_word(state.seq_h, state.tree_h, ctx, src)
        assert abs(switch.item() - 1.0) < 1e-9
        # copy mass zero: all probability sits in the vocabulary block
        assert dist.data[len(m.output_vocab):].max() < 1e-12

    def test_distribution_sums_to_one_with_extensions(self):
        m = tiny_model(seed=5)
        src = m.prepare_source(["cat", "zzz", "sat", "zzz", "qqq"])
        assert src.extensions == ["zzz", "qqq"]
        state = m.initial_state()
        ctx = m.attend(state.tree_h, state.seq_h, src)
        dist, switch = m.predict_word(state.seq_h, state.tree_h, ctx, src)
        assert dist.shape == (src.union_size,)
        assert abs(dist.data.sum() - 1.0) < 1e-6
        lam = switch.item()
        # vocabulary block sums to lam plus copied in-vocab mass
        assert dist.data.min() >= 0.0

    def test_union_ids_cover_vocab_source_and_unk(self):
        m = tiny_model()
        src = m.prepare_source(["cat", "zzz", "sat"])
        assert src.union_id("cat") == m.output_vocab.id("cat")
        assert src.union_id("zzz") == len(m.output_vocab)
        assert src.union_id("never-seen") == m.output_vocab.unk_id
        assert src.union_token(len(m.output_vocab)) == "zzz"


class TestCopyScatter:
    """The copy term is one scatter of attention into union columns; the
    dense 0/1 product it replaced is the reference."""

    TOKENS = ["cat", "zzz", "sat", "zzz", "qqq", "cat", "the"]

    @pytest.mark.parametrize("rows", [False, True], ids=["vector", "rows"])
    def test_matches_dense_product(self, rows):
        m = tiny_model(seed=21)
        src = m.prepare_source(self.TOKENS)
        # repeated in-vocabulary and extension words share a column
        assert src.extensions == ["zzz", "qqq", "the"]
        cat, sat, v = (m.output_vocab.id("cat"), m.output_vocab.id("sat"),
                       len(m.output_vocab))
        assert src.union_ids.tolist() == [cat, v, sat, v, v + 1, cat, v + 2]
        params = m.parameters()
        results = []
        for predict in (m.predict_word, lambda *a: predict_word_dense(m, *a)):
            ad.zero_grads(params)
            with ad.Tape() as tape:
                src = m.prepare_source(self.TOKENS)
                states = [m.initial_state()]
                for op in (tr.gen("cat"), tr.gen("zzz")):
                    states.append(m.step(states[-1], op))
                if rows:
                    tree_h, seq_h = (ad.stack_rows([getattr(s, name)
                                                    for s in states])
                                     for name in ("tree_h", "seq_h"))
                else:
                    tree_h, seq_h = states[-1].tree_h, states[-1].seq_h
                ctx = m.attend(tree_h, seq_h, src)
                dist, _ = predict(seq_h, tree_h, ctx, src)
                probe = np.cos(np.arange(dist.data.size)).reshape(dist.shape)
                tape.backward(ad.total(ad.mul(dist, ad.Tensor(probe))))
            results.append((dist.data, {p.name: p.grad.copy()
                                        for p in params}))
        (scatter, grads), (dense, dense_grads) = results
        assert scatter.shape == ((len(states),) if rows else ()) \
            + (src.union_size,)
        np.testing.assert_allclose(scatter, dense, rtol=0, atol=1e-12)
        for name, g in dense_grads.items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12,
                                       err_msg=name)
        assert np.abs(grads["attn_v"]).max() > 0


class TestJointDistribution:
    def test_initial_state_masks_all_reduces(self):
        m = tiny_model()
        src = m.prepare_source(["the", "cat"])
        op_rows, word_rows = m.joint_step_distribution(
            [m.initial_state()], src, max_words=4)
        op_probs, word_probs = op_rows[0], word_rows[0]
        assert op_probs[OP_INDEX[tr.REDUCE_L]] == 0.0
        assert op_probs[OP_INDEX[tr.REDUCE_R]] == 0.0
        assert abs(op_probs.sum() - 1.0) < 1e-6
        assert abs(word_probs.sum() - op_probs[OP_INDEX[tr.GEN]]) < 1e-6

    def test_total_mass_is_one_after_masking(self):
        m = tiny_model(seed=3)
        src = m.prepare_source(["the", "cat", "sat"])
        state = m.initial_state()
        for op in [tr.gen("cat"), tr.gen("sat")]:
            state = m.step(state, op)
        op_rows, word_rows = m.joint_step_distribution([state], src, 4)
        op_probs, word_probs = op_rows[0], word_rows[0]
        mass = op_probs[OP_INDEX[tr.REDUCE_L]] + \
            op_probs[OP_INDEX[tr.REDUCE_R]] + word_probs.sum()
        assert abs(mass - 1.0) < 1e-6

    def test_unmasked_gen_mass_identity(self):
        # sum over words of P(GEN(w)) equals P(op = GEN) by factorization
        m = tiny_model(seed=9)
        src = m.prepare_source(["the", "cat", "zzz"])
        state = m.initial_state()
        ctx = m.attend(state.tree_h, state.seq_h, src)
        op_probs = ad.softmax(m.op_scores(state.tree_h, state.hist_h,
                                          ctx.context))
        dist, _ = m.predict_word(state.seq_h, state.tree_h, ctx, src)
        joint_gen = op_probs.data[OP_INDEX[tr.GEN]] * dist.data
        assert abs(joint_gen.sum() - op_probs.data[OP_INDEX[tr.GEN]]) < 1e-6

    def test_reduces_outscored_by_200_nats_still_decode(self):
        # every op-hidden unit saturates at 1, so the GEN logit beats both
        # reduces by 200 nats: float32 reduce probabilities underflow to
        # 0, yet at max_words only the reduces remain valid
        m = tiny_model(dtype=np.float32)
        h = m.config.hidden_size
        m.op_hidden_b.data[...] = 20.0
        m.op_out_w.data[:, OP_INDEX[tr.GEN]] = 200.0 / h
        src = m.prepare_source(["the", "cat"])
        config = decoding.BeamConfig(beam_size=3, max_words=2)
        hyp = decoding.beam_search(m, src, config)
        assert hyp.complete
        assert len(tr.extract_summary(hyp.ops)) == 2
        assert np.isfinite(hyp.score)


class TestDeterminism:
    def test_same_seed_same_outputs(self):
        runs = []
        for _ in range(2):
            m = tiny_model(seed=123)
            src = m.prepare_source(["the", "cat", "sat"])
            state = m.initial_state()
            ctx = m.attend(state.tree_h, state.seq_h, src)
            runs.append(ad.softmax(m.op_scores(
                state.tree_h, state.hist_h, ctx.context)).data.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        m = tiny_model(seed=7, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        m.save(path)
        loaded = Model.load(path)
        assert loaded.config == m.config
        src = ["the", "cat", "sat"]
        np.testing.assert_array_equal(
            m.encode([src])[0].matrix.data,
            loaded.encode([src])[0].matrix.data)

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        m = tiny_model(seed=7)
        path = tmp_path / "model.ckpt"
        m.save(path)

        def uniform_init(*args, **kwargs):
            raise AssertionError("weights were drawn")

        monkeypatch.setattr(ad, "uniform_init", uniform_init)
        loaded = Model.load(path)
        assert [p.name for p in loaded.parameters()] \
            == [p.name for p in m.parameters()]
        for a, b in zip(loaded.parameters(), m.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("side", ["input", "output"])
    def test_vocab_size_disagreeing_with_config_is_an_error(self, side):
        in_vocab, out_vocab = tiny_vocab(["the", "cat"]), tiny_vocab(["cat"])
        config = ModelConfig(input_vocab_size=len(in_vocab),
                             output_vocab_size=len(out_vocab),
                             hidden_size=4, embed_size=4)
        vocabs = {"input": in_vocab, "output": out_vocab}
        vocabs[side] = tiny_vocab(["the", "cat", "mat"])
        with pytest.raises(ModelError,
                           match=f"{side} vocab size disagrees with config"):
            Model(config, vocabs["input"], vocabs["output"])

    @pytest.mark.parametrize("value", [2.5, "4", True])
    def test_non_integer_size_rejected(self, value):
        with pytest.raises(ModelError, match="hidden_size must be an integer"):
            ModelConfig(input_vocab_size=5, output_vocab_size=5,
                        hidden_size=value)

    def test_negative_seed_rejected(self):
        with pytest.raises(ModelError, match="seed"):
            tiny_model(seed=-1)

    def test_numpy_integer_sizes_save_and_load(self, tmp_path):
        in_vocab, out_vocab = tiny_vocab(["the", "cat"]), tiny_vocab(["cat"])
        config = ModelConfig(input_vocab_size=np.int64(len(in_vocab)),
                             output_vocab_size=np.int32(len(out_vocab)),
                             hidden_size=np.int64(4), embed_size=np.int64(4))
        assert type(config.hidden_size) is int
        m = Model(config, in_vocab, out_vocab, seed=7)
        path = tmp_path / "model.ckpt"
        m.save(path)
        loaded = Model.load(path)
        assert loaded.config == config
        for a, b in zip(loaded.parameters(), m.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_vocab_hash_mismatch_detected(self, tmp_path):
        m = tiny_model(seed=7, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        meta = m.metadata()
        meta["output_vocab_hash"] = "0" * 64
        ad.save_checkpoint(path, m.parameters(), metadata=meta)
        with pytest.raises(ModelError, match="hash mismatch"):
            Model.load(path)


def sized_parts(size, in_words, out_words):
    """Config and vocabularies of a model whose embeddings and word head
    are several init chunks each, so fixed costs are small beside them."""
    in_vocab = tiny_vocab([f"i{k}" for k in range(in_words)])
    out_vocab = tiny_vocab([f"o{k}" for k in range(out_words)])
    config = ModelConfig(input_vocab_size=len(in_vocab),
                         output_vocab_size=len(out_vocab),
                         hidden_size=size, embed_size=size)
    return config, in_vocab, out_vocab


def traced(fn):
    """(result, peak, held): the bytes ``fn()`` allocated at its peak and
    still holds when it returns, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, held - base


class TestWeightsOnly:
    """A model built or loaded for decoding holds its weights and no
    gradient buffers, and neither step makes a full-size temporary."""

    def test_building_allocates_weights_plus_at_most_one_chunk(self):
        tiny_model()    # one-time allocations of a first build
        parts = sized_parts(128, 2000, 2000)
        m, peak, held = traced(lambda: Model(*parts, seed=3))
        weights = sum(p.data.nbytes for p in m.parameters())
        assert max(p.data.size for p in m.parameters()) \
            > 3 * ad._INIT_CHUNK
        assert all(p.grad is None for p in m.parameters())
        slack = 64 * 1024    # Parameter, Node and list objects
        assert held <= weights + slack
        assert peak <= weights + 8 * ad._INIT_CHUNK + slack

    def test_load_peaks_under_1_3_checkpoints(self, tmp_path):
        path = tmp_path / "model.ckpt"
        Model(*sized_parts(128, 2000, 2000), seed=3).save(path)
        size = path.stat().st_size
        Model.load(path)    # one-time allocations of a first load
        m, peak, held = traced(lambda: Model.load(path))
        assert peak < 1.3 * size
        assert held < 1.2 * size
        assert all(p.grad is None for p in m.parameters())


class TestOneTreePush:
    def test_every_op_steps_the_tree_lstm_once(self, monkeypatch):
        m = tiny_model()
        cells = []
        lstm_cell = ad.lstm_cell

        def recording_cell(zx, h, c, params):
            cells.append(params.w.name.split(".")[0])
            return lstm_cell(zx, h, c, params)

        monkeypatch.setattr(ad, "lstm_cell", recording_cell)
        state = m.initial_state()
        assert cells == ["tree_cell"]
        for op, expected in ((tr.gen("cat"), ["hist_cell", "tree_cell",
                                              "seq_cell"]),
                             (tr.gen("sat"), ["hist_cell", "tree_cell",
                                              "seq_cell"]),
                             (tr.RL, ["hist_cell", "tree_cell"]),
                             (tr.RR, ["hist_cell", "tree_cell"])):
            cells.clear()
            state = m.step(state, op)
            assert cells == expected
        assert state.is_terminal
        assert len(state.tree_states) == len(state.stack_reps) + 1 == 2
