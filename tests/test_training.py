"""Loss decomposition, Adam, clipping, and the training loop."""

import math

import numpy as np
import pytest

from treesum import autodiff as ad
from treesum import batching
from treesum import corpus as cp
from treesum import training
from treesum import transition as tr
from treesum.model import OP_INDEX, Model, ModelConfig
from helpers import random_gold_ops, seeded_rng, step_fold_rows, toy_corpus
from test_model import tiny_model


class TestClipGradients:
    def test_values_clamped_into_range(self):
        p = ad.Parameter(np.zeros(3, dtype=np.float64), "p")
        p.grad = np.array([7.2, -3.0, 0.0])
        training.clip_gradients([p], 5.0)
        np.testing.assert_array_equal(p.grad, [5.0, -3.0, 0.0])

    def test_idempotent(self):
        p = ad.Parameter(np.zeros(4, dtype=np.float64), "p")
        p.grad = np.array([9.0, -9.0, 4.9, -5.0])
        training.clip_gradients([p], 5.0)
        once = p.grad.copy()
        training.clip_gradients([p], 5.0)
        np.testing.assert_array_equal(p.grad, once)

    def test_zero_gradients_unchanged(self):
        p = ad.Parameter(np.ones(3), "p")
        p.grad = np.zeros(3, dtype=np.float32)
        training.clip_gradients([p], 5.0)
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_returns_pre_clip_norm_and_clipped_share(self):
        p = ad.Parameter(np.zeros(3, dtype=np.float64), "p")
        q = ad.Parameter(np.zeros((2, 2), dtype=np.float64), "q")
        p.grad = np.array([6.0, -5.0, 0.0])
        q.grad = np.array([[0.0, -8.0], [1.0, 1.0]])
        norm, share = training.clip_gradients([p, q], 5.0)
        assert norm == pytest.approx(math.sqrt(36 + 25 + 64 + 1 + 1))
        assert share == pytest.approx(2 / 7)   # 6 and -8; -5 is on the bound

    def test_missing_gradient_names_the_parameter(self):
        p = ad.Parameter(np.zeros(3, dtype=np.float64), "p")
        p.grad = np.array([7.0, 0.0, -7.0])
        fresh = ad.Parameter(np.zeros(2, dtype=np.float64), "fresh")
        with pytest.raises(training.TrainingError, match="'fresh'"):
            training.clip_gradients([p, fresh], 5.0)
        np.testing.assert_array_equal(p.grad, [7.0, 0.0, -7.0])


class TestAdamStep:
    def test_first_step_moves_against_gradient(self):
        config = training.TrainConfig(weight_decay=0.0)
        p = ad.Parameter(np.array([1.0, -1.0, 0.5]), "p", dtype=np.float64)
        p.grad = np.array([0.3, -0.2, 0.0])
        state = training.AdamState([p])
        before = p.data.copy()
        training.adam_step([p], state, config)
        moved = p.data - before
        assert moved[0] < 0 and moved[1] > 0 and moved[2] == 0

    def test_zero_gradient_leaves_only_weight_decay(self):
        config = training.TrainConfig(weight_decay=1e-2)
        p = ad.Parameter(np.array([2.0]), "p", dtype=np.float64)
        p.grad = np.zeros(1)
        state = training.AdamState([p])
        training.adam_step([p], state, config)
        np.testing.assert_allclose(
            p.data, [2.0 * (1.0 - config.lr * config.weight_decay)])

    def test_deterministic_across_runs(self):
        def run():
            config = training.TrainConfig()
            p = ad.Parameter(np.array([0.7, -0.3]), "p", dtype=np.float64)
            state = training.AdamState([p])
            rng = seeded_rng(61)
            for _ in range(20):
                p.grad = rng.normal(size=2)
                training.clip_gradients([p], config.grad_clip)
                training.adam_step([p], state, config)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_plain_formula_bit_for_bit(self, dtype):
        # the update written with a fresh array per expression; the
        # largest parameter spans two whole blocks and ends in a partial
        # one, and one parameter is a transposed (non-contiguous) view
        def reference(data, grad, m, v, t, c):
            data *= 1.0 - c.lr * c.weight_decay
            m *= c.beta1
            m += (1.0 - c.beta1) * grad
            v *= c.beta2
            v += (1.0 - c.beta2) * grad * grad
            m_hat = m / (1.0 - c.beta1 ** t)
            v_hat = v / (1.0 - c.beta2 ** t)
            data -= c.lr * m_hat / (np.sqrt(v_hat) + c.eps)

        config = training.TrainConfig(lr=3e-2, weight_decay=1e-3)
        rng = seeded_rng(62)
        params = [ad.Parameter(rng.normal(size=shape).astype(dtype), name)
                  for name, shape in (
                      ("w", (7, 5)), ("b", (3,)), ("s", (1,)),
                      ("big", (2 * training._ADAM_BLOCK // 64 + 3, 64)))]
        params.append(ad.Parameter(
            rng.normal(size=(6, 4)).astype(dtype).T, "t"))
        expected = [(p.data.copy(), np.zeros(p.shape, dtype),
                     np.zeros(p.shape, dtype)) for p in params]
        state = training.AdamState(params)
        for t in range(1, 6):
            for p, (data, m, v) in zip(params, expected):
                p.grad = rng.normal(scale=2.0, size=p.shape).astype(dtype)
                reference(data, p.grad, m, v, t, config)
            training.adam_step(params, state, config)
            for p, (data, m, v) in zip(params, expected):
                assert p.data.dtype == dtype
                np.testing.assert_array_equal(p.data, data, p.name)
                np.testing.assert_array_equal(state.m[p.name], m, p.name)
                np.testing.assert_array_equal(state.v[p.name], v, p.name)

    def test_missing_gradient_changes_nothing(self):
        p = ad.Parameter(np.array([1.0, -1.0]), "p", dtype=np.float64)
        p.grad = np.array([0.3, -0.2])
        fresh = ad.Parameter(np.array([0.5]), "fresh", dtype=np.float64)
        state = training.AdamState([p, fresh])
        with pytest.raises(training.TrainingError, match="'fresh'"):
            training.adam_step([p, fresh], state, training.TrainConfig())
        assert state.step == 0
        np.testing.assert_array_equal(p.data, [1.0, -1.0])
        assert not state.m["p"].any() and not state.v["p"].any()


class TestSequenceLoss:
    def test_zero_params_give_uniform_op_term(self):
        m = tiny_model(out_words=("a", "b"))
        for p in m.parameters():
            p.data[...] = 0.0
        ops = tr.ops_from_text("GEN(a) GEN(b) RL RR")
        loss, stats = training.batch_loss(m, [(["cat", "sat"], tuple(ops))])
        n = 2
        assert abs(stats.op_loss - 2 * n * math.log(3)) < 1e-9

    def test_loss_decomposes_into_nonnegative_parts(self):
        m = tiny_model(seed=3)
        ops = tr.ops_from_text("GEN(cat) GEN(sat) RL RR")
        loss, stats = training.batch_loss(
            m, [(["the", "cat", "sat"], tuple(ops))])
        assert stats.op_loss >= 0.0
        assert stats.word_loss >= 0.0
        assert abs(loss.item() - (stats.op_loss + stats.word_loss)) < 1e-6

    def test_forced_probability_one_gives_zero_loss(self):
        # the heads see every step of the sequence as one row batch, and
        # the word head only the GEN steps
        m = tiny_model(dtype=np.float64)
        gold = tuple(tr.ops_from_text("GEN(cat) GEN(sat) RL RR"))
        src = m.prepare_source(["the", "cat"])
        op_ids = [OP_INDEX[op.kind] for op in gold]
        gen_uids = [src.union_id(op.word) for op in gold
                    if op.kind == tr.GEN]

        def forced_op_scores(tree_h, hist_h, context):
            assert tree_h.shape[0] == len(op_ids)
            scores = np.zeros((len(op_ids), 3))
            scores[np.arange(len(op_ids)), op_ids] = 1e4
            return ad.Tensor(scores)

        def forced_word(seq_h, tree_h, ctx, source):
            assert seq_h.shape[0] == len(gen_uids)
            dist = np.zeros((len(gen_uids), source.union_size))
            dist[np.arange(len(gen_uids)), gen_uids] = 1.0
            return ad.Tensor(dist), ad.Tensor(np.ones((len(gen_uids), 1)))

        m.op_scores = forced_op_scores
        m.predict_word = forced_word
        loss, _ = training.batch_loss(m, [(["the", "cat"], gold)])
        assert loss.item() == 0.0

    def test_unk_fallback_counts_missing_gold_words(self):
        m = tiny_model(out_words=("cat",))
        ops = tr.ops_from_text("GEN(zzz) RR")  # zzz not in vocab or source
        loss, stats = training.batch_loss(m, [(["the", "cat"], tuple(ops))])
        assert stats.unk_targets == 1
        assert np.isfinite(loss.item())

    def test_gold_word_reachable_by_copy_is_not_unk(self):
        m = tiny_model(out_words=("cat",))
        ops = tr.ops_from_text("GEN(zzz) RR")
        loss, stats = training.batch_loss(m, [(["zzz", "cat"], tuple(ops))])
        assert stats.unk_targets == 0


class TestBatchLoss:
    def test_batch_mean_equals_mean_of_instances(self):
        m = tiny_model(seed=5, out_words=("cat", "sat", "mat"))
        items = [
            (["the", "cat"], tuple(tr.ops_from_text("GEN(cat) RR"))),
            (["the", "cat", "sat"],
             tuple(tr.ops_from_text("GEN(cat) GEN(sat) RL RR"))),
        ]
        batched, _ = training.batch_loss(m, items)
        individual = [training.batch_loss(m, [item])[0].item()
                      for item in items]
        assert abs(batched.item() - np.mean(individual)) < 1e-6

    def test_empty_batch_rejected(self):
        with pytest.raises(training.TrainingError, match="empty"):
            training.batch_loss(tiny_model(), [])

    def test_invalid_gold_sequence_raises_training_error(self):
        m = tiny_model()
        items = [(["the", "cat"], tuple(tr.ops_from_text("GEN(cat) RR"))),
                 (["the", "cat"], (tr.RL, tr.gen("cat"), tr.RR))]
        with pytest.raises(training.TrainingError,
                           match="instance 1.*index 0"):
            training.batch_loss(m, items)

    @pytest.mark.parametrize("source, reason", [
        ([], "cannot encode an empty source"),
        (["cat"] * 101, "source length 101 exceeds configured maximum 100")])
    def test_unencodable_source_names_its_instance(self, source, reason):
        m = tiny_model()
        ops = tuple(tr.ops_from_text("GEN(cat) RR"))
        items = [(["the", "cat"], ops), (["sat"], ops), (source, ops)]
        with pytest.raises(training.TrainingError,
                           match=f"^batch instance 2: {reason}$"):
            training.batch_loss(m, items)

    def test_non_eager_gold_matches_per_step_fold(self):
        # h takes its right dependent r before its left dependent a, the
        # reverse of the eager oracle's order; the batched compositions
        # must follow the gold sequence, not the oracle.  Random valid
        # walks add a copy-only gold word (zzz: source, not vocabulary)
        # and an UNK target (qqq: neither)
        m = tiny_model(hidden=8, embed=8, seed=7, out_words=("a", "h", "r"),
                       dtype=np.float64)
        point = seeded_rng(71)
        for p in m.parameters():
            p.data = point.uniform(-0.6, 0.6, size=p.data.shape)
        tokens = ["the", "cat", "zzz", "sat"]
        ops = tuple(tr.ops_from_text("GEN(a) GEN(h) GEN(r) RR RL RR"))
        assert ops != tuple(tr.oracle(tr.execute(ops)))
        walks = seeded_rng(72)
        cases = [ops] + [
            random_gold_ops(walks, 5, alphabet=["a", "h", "r", "zzz", "qqq"])
            for _ in range(8)]
        words = {op.word for case in cases for op in case
                 if op.kind == tr.GEN}
        assert {"zzz", "qqq"} <= words
        for case in cases:
            loss, _ = training.batch_loss(m, [(tokens, case)])
            assert abs(loss.item() - per_step_fold_loss(m, tokens, case)) \
                < 1e-12

    def test_heads_run_once_per_instance(self, monkeypatch):
        m = tiny_model(seed=5, out_words=("cat", "sat", "mat"))
        items = [
            (["the", "cat"], tuple(tr.ops_from_text("GEN(cat) RR"))),
            (["the", "cat", "sat"],
             tuple(tr.ops_from_text("GEN(cat) GEN(sat) RL RR"))),
            (["mat", "sat"],
             tuple(tr.ops_from_text("GEN(sat) GEN(mat) RR RR"))),
        ]
        calls = {}
        for name in ("attend", "op_scores", "predict_word"):
            def counted(self, *args, _name=name, _fn=getattr(Model, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(self, *args)
            monkeypatch.setattr(Model, name, counted)
        training.batch_loss(m, items)
        assert calls == {"attend": 3, "op_scores": 3, "predict_word": 3}

    def test_one_scan_per_recurrence_per_batch(self, monkeypatch):
        m = tiny_model(seed=5, out_words=("cat", "sat", "mat"))
        items = [
            (["the", "cat", "sat"],
             tuple(tr.ops_from_text("GEN(cat) GEN(sat) RL RR"))),
            (["the", "cat"], tuple(tr.ops_from_text("GEN(cat) RR"))),
            (["mat", "sat"],
             tuple(tr.ops_from_text("GEN(sat) GEN(mat) GEN(cat) RR RL RR"))),
        ]
        scans = []
        scan = ad.lstm_scan

        def counted(zx, parents, h0, c0, params):
            scans.append((params.w.name, len(parents)))
            return scan(zx, parents, h0, c0, params)
        monkeypatch.setattr(ad, "lstm_scan", counted)
        encoder = [f"encoder.{layer}.{side}.w"
                   for layer in range(m.config.encoder_layers)
                   for side in ("fwd", "bwd")]
        for size in (1, 3):
            scans.clear()
            training.batch_loss(m, items[:size])
            ops = [len(gold) for _, gold in items[:size]]
            gens = [sum(op.kind == tr.GEN for op in gold)
                    for _, gold in items[:size]]
            assert sorted(name for name, _ in scans) == sorted(
                encoder + ["hist_cell.w", "seq_cell.w", "tree_cell.w"])
            rows = dict(scans)
            assert rows["tree_cell.w"] == sum(ops)
            assert rows["seq_cell.w"] == sum(gens)
            assert rows["hist_cell.w"] == sum(ops) - size

    def test_words_are_one_gather_and_no_vector_is_a_row(self, monkeypatch):
        m = tiny_model(seed=5, out_words=("cat", "sat", "mat"))
        items = [
            (["the", "cat"], tuple(tr.ops_from_text("GEN(cat) RR"))),
            (["the", "cat", "sat"],
             tuple(tr.ops_from_text("GEN(cat) GEN(sat) RL RR"))),
            (["mat", "sat"],
             tuple(tr.ops_from_text("GEN(sat) GEN(mat) RR RR"))),
        ]
        tables = {"row": [], "rows": []}
        for name, seen in tables.items():
            def recorded(table, *args, _seen=seen, _fn=getattr(ad, name)):
                _seen.append(table)
                return _fn(table, *args)
            monkeypatch.setattr(ad, name, recorded)
        training.batch_loss(m, items)
        assert tables["row"] == []
        assert sum(table is m.out_embed for table in tables["rows"]) == 1

    def test_batch_loss_rejects_unterminated_gold(self):
        m = tiny_model()
        with pytest.raises(training.TrainingError, match="terminate"):
            training.batch_loss(m, [(["the", "cat"], (tr.gen("cat"),))])


class TestTeacherForcedRows:
    """The scans of `training.teacher_forced_rows` against `Model.step`
    folded over the gold ops (`helpers.step_fold_rows`), in float64."""

    @staticmethod
    def _case():
        m = tiny_model(hidden=8, embed=8, seed=17, out_words=("a", "h", "r"),
                       dtype=np.float64)
        point = seeded_rng(81)
        for p in m.parameters():
            p.data = point.uniform(-0.6, 0.6, size=p.data.shape)
        # one-word sequences with a vocabulary, a copy-only (zzz: source,
        # not vocabulary) and an UNK (qqq: neither) target; a non-eager
        # sequence; random valid walks
        cases = [tuple(tr.ops_from_text(text)) for text in (
            "GEN(a) RR", "GEN(zzz) RR", "GEN(qqq) RR",
            "GEN(a) GEN(h) GEN(r) RR RL RR")]
        walks = seeded_rng(82)
        cases += [tuple(random_gold_ops(walks, int(walks.integers(2, 7)),
                                        alphabet=["a", "h", "r", "zzz", "qqq"]))
                  for _ in range(10)]
        assert any(ops != tuple(tr.oracle(tr.execute(ops))) for ops in cases)
        return m, ["the", "cat", "zzz", "sat"], cases

    @staticmethod
    def _planned_rows(m, ops):
        batch_plan = batching.plan([ops])
        return training.teacher_forced_rows(
            m, [ops], batching.batched_compose(batch_plan, m), batch_plan)[0]

    @staticmethod
    def _assert_close(got, want, name):
        scale = np.abs(want).max()
        assert scale > 0, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale,
                                   err_msg=name)

    def test_rows_and_their_gradients_match_step_fold(self):
        m, _, cases = self._case()
        probe = seeded_rng(83)
        for ops in cases:
            weights = [ad.Tensor(probe.normal(size=(len(ops), 8)))
                       for _ in range(3)]
            runs = []
            for rows_of in (
                    lambda: self._planned_rows(m, ops),
                    lambda: step_fold_rows(m, ops)):
                ad.zero_grads(m.parameters())
                with ad.Tape() as tape:
                    rows = rows_of()
                    loss = None
                    for r, w in zip(rows, weights):
                        term = ad.total(ad.mul(r, w))
                        loss = term if loss is None else ad.add(loss, term)
                    tape.backward(loss)
                runs.append(([r.data for r in rows],
                             {p.name: p.grad.copy() for p in m.parameters()}))
            (scan, scan_grads), (fold, fold_grads) = runs
            for name, got, want in zip(("tree", "seq", "hist"), scan, fold):
                assert got.shape == (len(ops), 8)
                self._assert_close(got, want, name)
            for name, g in fold_grads.items():
                if np.abs(g).max() > 0:
                    self._assert_close(scan_grads[name], g, name)
                else:
                    assert not scan_grads[name].any(), name

    def test_batch_loss_and_gradients_match_step_fold(self, monkeypatch):
        m, tokens, cases = self._case()
        batch = [(tokens, ops) for ops in cases[:6]] + [
            (["mat", "zzz"], ops) for ops in cases[6:]]
        runs = []
        for fold in (False, True):
            with monkeypatch.context() as patch:
                if fold:
                    patch.setattr(training, "teacher_forced_rows",
                                  lambda model, sequences, *planned:
                                  [step_fold_rows(model, ops)
                                   for ops in sequences])
                ad.zero_grads(m.parameters())
                with ad.Tape() as tape:
                    loss, stats = training.batch_loss(m, batch)
                    tape.backward(loss)
            runs.append((loss.item(), stats,
                         {p.name: p.grad.copy() for p in m.parameters()}))
        (loss, stats, grads), (ref_loss, ref_stats, ref_grads) = runs
        assert abs(loss - ref_loss) < 1e-12 * abs(ref_loss)
        for name in ("op_loss", "word_loss"):
            assert getattr(stats, name) == pytest.approx(
                getattr(ref_stats, name), rel=1e-12, abs=0)
        counts = ("ops", "op_correct", "words", "word_correct", "unk_targets")
        assert [getattr(stats, n) for n in counts] == \
            [getattr(ref_stats, n) for n in counts]
        assert stats.unk_targets > 0
        for name, g in ref_grads.items():
            self._assert_close(grads[name], g, name)

    @pytest.mark.parametrize("text", [
        "GEN(cat) GEN(sat) RR", "RR", "GEN(cat) RL", "GEN(cat) RR RR",
        "GEN(cat) RR GEN(sat)"])
    def test_invalid_gold_raises_training_error(self, text):
        m = tiny_model()
        with pytest.raises(training.TrainingError,
                           match="^batch instance 0: .*terminate"):
            training.batch_loss(
                m, [(["the", "cat"], tuple(tr.ops_from_text(text)))])


class TestEvaluate:
    def test_chunked_dev_loss_equals_one_batch(self):
        m = tiny_model(seed=5, out_words=("cat", "sat", "mat"))
        items = [
            (["the", "cat"], tuple(tr.ops_from_text("GEN(cat) RR"))),
            (["the", "cat", "sat"],
             tuple(tr.ops_from_text("GEN(cat) GEN(sat) RL RR"))),
            (["mat", "sat"],
             tuple(tr.ops_from_text("GEN(sat) GEN(mat) RR RR"))),
        ]
        whole, whole_stats = training.batch_loss(m, items)
        chunked, stats = training.evaluate(m, items, batch_size=2)
        assert abs(chunked - whole.item()) < 1e-12
        assert (stats.ops, stats.words) == (whole_stats.ops,
                                            whole_stats.words)

    def test_empty_dev_set_scores_zero(self):
        loss, stats = training.evaluate(tiny_model(), [], batch_size=4)
        assert loss == 0.0 and stats.ops == 0


class TestEndToEndGradient:
    def test_full_loss_gradient_matches_finite_differences(self):
        # two-instance micro-batch in 64-bit, every parameter sampled;
        # parameters re-drawn at a generic point, since at the tiny init
        # scale the attention weights sit in a softmax-invariant regime
        # with gradients below finite-difference resolution
        m = tiny_model(hidden=8, embed=8, seed=11,
                       src_words=("the", "cat", "sat", "mat"),
                       out_words=("cat", "sat"), dtype=np.float64)
        point = seeded_rng(77)
        for p in m.parameters():
            p.data = point.uniform(-0.6, 0.6, size=p.data.shape)
        items = [
            (["the", "cat", "zzz"],
             tuple(tr.ops_from_text("GEN(cat) GEN(zzz) RL RR"))),
            (["sat", "mat"], tuple(tr.ops_from_text("GEN(sat) RR"))),
        ]

        def f():
            loss, _ = training.batch_loss(m, items)
            return loss

        err = ad.grad_check(f, m.parameters(),
                            samples_per_param=4)
        assert err < 1e-4

    def test_encoder_gradient_with_unequal_source_lengths(self):
        # the lockstep encoder narrows its state as sources end: lengths
        # 4, 1 and 3 narrow it at steps 1 and 3, in both directions
        m = tiny_model(hidden=6, embed=5, seed=12, dtype=np.float64)
        point = seeded_rng(78)
        for p in m.parameters():
            p.data = point.uniform(-0.6, 0.6, size=p.data.shape)
        items = [
            (["the", "cat", "sat", "mat"],
             tuple(tr.ops_from_text("GEN(cat) GEN(sat) RL RR"))),
            (["cat"], tuple(tr.ops_from_text("GEN(cat) RR"))),
            (["mat", "zzz", "sat"],
             tuple(tr.ops_from_text("GEN(sat) GEN(zzz) RR RR"))),
        ]
        encoder = [m.src_embed, m.attn_enc_w] + [
            p for cells in m.encoder_cells for cell in cells
            for p in cell.parameters()]

        def f():
            loss, _ = training.batch_loss(m, items)
            return loss

        assert ad.grad_check(f, encoder, samples_per_param=6) < 1e-5


class TestTrainLoop:
    def test_loss_decreases_on_toy_corpus(self):
        examples = toy_corpus(n=8, seed=2)
        m = _toy_model(examples, hidden=16, embed=16, seed=1)
        config = training.TrainConfig(batch_size=4, epochs=5, seed=3,
                                      patience=100)
        history = training.train(m, examples, config=config)
        losses = [row["train_loss"] for row in history]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_history_rows_carry_epoch_telemetry(self):
        examples = toy_corpus(n=6, seed=2)
        m = _toy_model(examples, hidden=8, embed=8, seed=1)
        lines = []
        history = training.train(
            m, examples, config=training.TrainConfig(batch_size=4, epochs=2,
                                                     seed=3, patience=100),
            log=lines.append)
        assert len(history) == len(lines) == 2
        for row, line in zip(history, lines):
            assert list(row) == [
                "epoch", "train_loss", "dev_loss", "dev_op_acc",
                "dev_word_acc", "wall_s", "inst_per_s", "grad_norm",
                "clip_share", "unk_targets"]
            assert len(line.split("\t")) == len(row)
            assert row["wall_s"] > 0 and row["inst_per_s"] > 0
            assert row["grad_norm"] > 0 and 0 <= row["clip_share"] <= 1
            assert row["unk_targets"] == 0

    def test_zero_epochs_write_initial_checkpoint_only(self, tmp_path):
        examples = toy_corpus(n=4, seed=2)
        m = _toy_model(examples, hidden=8, embed=8, seed=1)
        path = tmp_path / "model.ckpt"
        history = training.train(
            m, examples, config=training.TrainConfig(epochs=0),
            checkpoint_path=path)
        assert history == []
        assert path.exists()
        loaded = Model.load(path)
        np.testing.assert_array_equal(loaded.out_embed.data, m.out_embed.data)

    def test_same_seed_gives_identical_loss_curve(self):
        def run():
            examples = toy_corpus(n=6, seed=4)
            m = _toy_model(examples, hidden=8, embed=8, seed=5)
            return training.train(
                m, examples,
                config=training.TrainConfig(batch_size=3, epochs=3, seed=6,
                                            patience=100))

        first, second = run(), run()
        assert [r["train_loss"] for r in first] == \
            [r["train_loss"] for r in second]

    def test_empty_corpus_rejected(self):
        m = tiny_model()
        with pytest.raises(training.TrainingError, match="empty"):
            training.train(m, [], config=training.TrainConfig(epochs=1))

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(training.TrainingError, match="batch_size"):
            training.TrainConfig(batch_size=0)

    @pytest.mark.parametrize("key, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("eps", float("nan")),
        ("grad_clip", float("inf")), ("weight_decay", float("nan")),
        ("weight_decay", -5.0)])
    def test_non_finite_or_negative_rate_rejected(self, key, value):
        with pytest.raises(training.TrainingError, match=key):
            training.TrainConfig(**{key: value})

    def test_non_finite_parameters_abort_with_diagnostics(self):
        examples = toy_corpus(n=4, seed=2)
        m = _toy_model(examples, hidden=8, embed=8, seed=1)
        m.out_embed.data[...] = np.nan
        with pytest.raises((training.TrainingError, ad.NonFiniteError)):
            training.train(m, examples,
                           config=training.TrainConfig(epochs=1))


def per_step_fold_loss(model, tokens, ops):
    """Reference loss of one gold sequence in which every reduce composes
    inside `Model.step`, in the order the sequence reduces."""
    src = model.prepare_source(tokens)
    state = model.initial_state()
    total = 0.0
    for op in ops:
        ctx = model.attend(state.tree_h, state.seq_h, src.enc)
        scores = model.op_scores(state.tree_h, state.hist_h,
                                 ctx.context).data
        shifted = scores - scores.max()
        total -= shifted[OP_INDEX[op.kind]] - math.log(np.exp(shifted).sum())
        if op.kind == tr.GEN:
            dist, _ = model.predict_word(state.seq_h, state.tree_h, ctx, src)
            total -= math.log(dist.data[src.union_id(op.word)])
        state = model.step(state, op)
    return total


def _toy_model(examples, hidden, embed, seed):
    in_vocab = cp.build_vocab(examples, "input", min_freq=1)
    out_vocab = cp.build_vocab(examples, "output")
    config = ModelConfig(
        input_vocab_size=len(in_vocab),
        output_vocab_size=len(out_vocab),
        hidden_size=hidden,
        embed_size=embed,
    )
    return Model(config, in_vocab, out_vocab, seed=seed)


def _per_step_matmul(a, b):
    """matmul with every gradient computed on the spot: one outer product
    per vector step into the weight, the reference for the deferred flush."""
    data = a.data @ b.data

    def backward(g):
        if a.data.ndim == 2 and b.data.ndim == 2:
            grads = g @ b.data.T, a.data.T @ g
        elif a.data.ndim == 2:
            grads = np.outer(g, b.data), a.data.T @ g
        elif b.data.ndim == 2:
            grads = b.data @ g, np.outer(a.data, g)
        else:
            grads = g * b.data, g * a.data
        for t, grad in zip((a, b), grads):
            if t.node is not None:   # constants take none
                t.node.accumulate(grad)
    return ad._make(data, backward, "matmul")


def _per_step_defer(tape, param, x, g, start=0):
    """Tape._defer that adds one outer product per row into the rows
    ``start:`` of the weight on the spot: the LSTM primitives' reference
    for the deferred flush."""
    block = param.grad[start:start + x.shape[1]]
    for x_row, g_row in zip(x, g):
        block += np.outer(x_row, g_row).reshape(block.shape)


class TestDeferredWeightGradients:
    """Weight gradients of ``x @ Parameter`` are flushed as one GEMM per
    parameter and block of rows at the end of `Tape.backward`; constants
    get none."""

    @staticmethod
    def _case():
        m = tiny_model(hidden=16, embed=16, seed=9, dtype=np.float64,
                       out_words=("a", "h", "r"))
        point = seeded_rng(91)
        for p in m.parameters():
            p.data[...] = point.uniform(-0.3, 0.3, size=p.shape)
        walks = seeded_rng(92)
        instances = [
            (["the", "cat", "zzz", "sat"],
             random_gold_ops(walks, 5, alphabet=["a", "h", "r", "zzz"])),
            (["mat", "cat"], random_gold_ops(walks, 4, alphabet=["a", "r"])),
        ]
        return m, instances

    @staticmethod
    def _loss(m, instances):
        """batch_loss plus uses of one parameter from vectors and rows:
        attn_enc_w and attn_v (rows in the encoder and the heads) from a
        vector, and the tree cell (vectors in Model.step) from rows."""
        loss, _ = training.batch_loss(m, instances)
        enc = m.encode([instances[0][0]])[0]
        key = ad.tanh(ad.matmul(ad.row(enc.matrix, 0), m.attn_enc_w))
        zeros = ad.constant(np.zeros((3, m.config.hidden_size)), np.float64)
        rows_h, _ = ad.lstm_cell(
            ad.lstm_input(ad.rows(m.out_embed, [1, 2, 3]), m.tree_cell),
            zeros, zeros, m.tree_cell)
        return ad.add(ad.add(loss, ad.matmul(key, m.attn_v)),
                      ad.total(rows_h))

    def _grads(self, m, instances):
        ad.zero_grads(m.parameters())
        with ad.Tape() as tape:
            tape.backward(self._loss(m, instances))
        return {p.name: p.grad.copy() for p in m.parameters()}

    def test_never_zeroed_model_gets_the_zeroed_gradients(self):
        # without zero_grads every buffer is made by its first write: the
        # flush (word_out_w, the LSTM weights), attention_scores' at-once
        # gradient of attn_v (which _loss also flushes), an LSTM bias's
        # accumulate, and a gather's buffer() (the embeddings)
        fresh, instances = self._case()
        assert all(p.grad is None for p in fresh.parameters())
        with ad.Tape() as tape:
            tape.backward(self._loss(fresh, instances))
        zeroed = self._grads(self._case()[0], instances)
        for p in fresh.parameters():
            assert p.grad is not None, p.name
            np.testing.assert_array_equal(p.grad, zeroed[p.name], p.name)

    def test_flush_matches_per_step_outer_products(self, monkeypatch):
        m, instances = self._case()
        defer, blocks = ad.Tape._defer, set()

        def spy(tape, param, x, g, start=0):
            blocks.add((param.name, start))
            defer(tape, param, x, g, start)
        with monkeypatch.context() as patch:
            patch.setattr(ad.Tape, "_defer", spy)
            deferred = self._grads(m, instances)
        assert {("attn_enc_w", 0), ("attn_v", 0), ("compose_w", 0),
                ("word_out_w", 0)} <= blocks
        # an LSTM's w takes its input rows from lstm_input and its
        # recurrent rows from lstm_cell (the encoder, Model.step) or
        # lstm_scan (the tree cell), both in one flush
        e, h = m.config.embed_size, m.config.hidden_size
        for name, inputs in (("tree_cell.w", e), ("seq_cell.w", e),
                             ("encoder.0.bwd.w", e),
                             ("encoder.1.fwd.w", 2 * h)):
            assert {(name, 0), (name, inputs)} <= blocks, name
        with monkeypatch.context() as patch:
            patch.setattr(ad, "matmul", _per_step_matmul)
            patch.setattr(ad.Tape, "_defer", _per_step_defer)
            reference = self._grads(m, instances)
        for p in m.parameters():
            scale = np.abs(reference[p.name]).max()
            assert scale > 0, p.name
            np.testing.assert_allclose(deferred[p.name], reference[p.name],
                                       rtol=0, atol=1e-12 * scale,
                                       err_msg=p.name)

    def test_constants_get_no_gradient(self, monkeypatch):
        # zero initial states, lifted scalars and constant() leaves keep
        # .grad None; Parameter gradients are the same as when every
        # operand takes a gradient
        m, instances = self._case()
        made = []
        lift, constant, zeros = ad._lift, ad.constant, Model._zeros

        def lifted(x, like):
            out = lift(x, like)
            if out is not x:
                made.append(out)
            return out

        def recorded(fn):
            def wrapper(*args, **kwargs):
                made.append(fn(*args, **kwargs))
                return made[-1]
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(ad, "_lift", lifted)
            patch.setattr(ad, "constant", recorded(constant))
            patch.setattr(Model, "_zeros", recorded(zeros))
            grads = self._grads(m, instances)
        kinds = {(type(t).__name__, t.shape) for t in made}
        assert len(kinds) >= 4
        assert all(t.grad is None for t in made)
        with monkeypatch.context() as patch:
            patch.setattr(ad, "_node", lambda t: t.node or ad.Node(
                t.shape, t.dtype))
            every_operand = self._grads(m, instances)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, every_operand[name], name)

    @pytest.mark.parametrize("error", [ad.NonFiniteError, ad.ShapeError])
    def test_error_mid_backward_leaves_no_stash(self, error):
        m, instances = self._case()
        clean = self._grads(m, instances)
        ad.zero_grads(m.parameters())
        with ad.Tape() as tape:
            loss = self._loss(m, instances)
        first = tape.nodes[0]   # its backward runs last
        original = first.backward

        def failing(g):
            original(g)
            raise error("injected")
        first.backward = failing
        with pytest.raises(error, match="injected"):
            tape.backward(loss)
        assert tape._deferred == {} and tape.nodes == []
        ad.zero_grads(m.parameters())
        with tape:   # the same tape records and flushes a fresh graph
            tape.backward(self._loss(m, instances))
        for p in m.parameters():
            np.testing.assert_array_equal(p.grad, clean[p.name], p.name)
