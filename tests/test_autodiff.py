"""Autodiff core: primitives, LSTM cell, backward, checkpoints."""

import gc
import weakref

import numpy as np
import pytest

from treesum import autodiff as ad
from helpers import (attention_scores_composite, lstm_cell_composite,
                     lstm_cell_fold, lstm_step, sigmoid_where)


def t64(values):
    return ad.Tensor(np.asarray(values, dtype=np.float64))


def p64(rng, shape, name, scale=0.5):
    return ad.Parameter(ad.uniform_init(rng, shape, scale, np.float64), name)


def lstm_input_scan(x, parents, h0, c0, params):
    return ad.lstm_scan(ad.lstm_input(x, params), parents, h0, c0, params)


class TestPrimitiveValues:
    def test_softmax_of_zeros_is_uniform(self):
        out = ad.softmax(t64([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        out = ad.softmax(ad.Tensor(rng.normal(size=(7, 5)).astype(np.float64)))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)
        assert (out.data >= 0).all()

    def test_tanh_of_zero_vector(self):
        out = ad.tanh(t64([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_matmul_identity(self):
        v = t64([1.0, -2.0, 3.0])
        out = ad.matmul(t64(np.eye(3)), v)
        np.testing.assert_array_equal(out.data, v.data)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2,\)"):
            ad.matmul(t64(np.ones((2, 3))), t64(np.ones(2)))

    def test_non_finite_output_is_an_error(self):
        with pytest.raises(ad.NonFiniteError):
            ad.log(t64([0.0]))

    def test_stable_softmax_handles_large_logits(self):
        out = ad.softmax(t64([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_log_softmax_matches_log_of_softmax(self):
        x = t64([0.3, -1.2, 2.0])
        np.testing.assert_allclose(
            ad.log_softmax(x).data, np.log(ad.softmax(x).data), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_where_formula_bit_for_bit(self, dtype):
        info = np.finfo(dtype)
        edges = np.array([0.0, -0.0, info.smallest_subnormal,
                          -info.smallest_subnormal, info.tiny, -info.tiny,
                          80.0, -80.0, 100.0, -100.0, 3e38, -3e38,
                          info.max, -info.max], dtype=dtype)
        rng = np.random.default_rng(9)
        a = np.concatenate([edges,
                            rng.normal(scale=8.0, size=4096).astype(dtype),
                            rng.uniform(-1e-3, 1e-3, size=4096).astype(dtype)])
        got, want = ad._sigmoid_np(a), sigmoid_where(a)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


class TestBackward:
    def test_parameter_has_no_buffer_until_zero_grad(self):
        p = ad.Parameter(np.ones((2, 3)), "p")
        assert p.grad is None
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, np.zeros((2, 3)))
        assert p.grad.dtype == p.dtype

    def test_sum_gives_ones(self):
        p = p64(np.random.default_rng(1), (3, 4), "p")
        with ad.Tape() as tape:
            tape.backward(ad.total(p))
        np.testing.assert_array_equal(p.grad, np.ones((3, 4)))

    def test_zero_constant_loss_gives_zero_grads(self):
        p = p64(np.random.default_rng(2), (5,), "p")
        with ad.Tape() as tape:
            loss = ad.total(ad.mul(p, 0.0))
            tape.backward(loss)
        np.testing.assert_array_equal(p.grad, np.zeros(5))

    def test_loss_must_be_scalar(self):
        p = p64(np.random.default_rng(3), (2,), "p")
        with ad.Tape() as tape:
            out = ad.tanh(p)
            with pytest.raises(ad.ShapeError):
                tape.backward(out)

    def test_reuse_accumulates_fanout(self):
        # loss = sum(p * p) -> grad 2p via two uses of p
        rng = np.random.default_rng(4)
        p = p64(rng, (6,), "p")
        with ad.Tape() as tape:
            tape.backward(ad.total(ad.mul(p, p)))
        np.testing.assert_allclose(p.grad, 2 * p.data, atol=1e-12)

    def test_same_shape_reshape_records_no_node(self):
        rng = np.random.default_rng(4)
        p = p64(rng, (3, 2), "p")
        with ad.Tape() as tape:
            sq = ad.mul(p, p)
            assert ad.reshape(sq, (-1, 2)) is sq
            assert len(tape.nodes) == 1
            tape.backward(ad.total(ad.reshape(sq, (3, 2))))
        np.testing.assert_allclose(p.grad, 2 * p.data, atol=1e-12)

    def test_quadratic_matches_hand_derivative(self):
        p = ad.Parameter(np.array([3.0]), "w", dtype=np.float64)
        with ad.Tape() as tape:
            tape.backward(ad.total(ad.mul(p, p)))
        np.testing.assert_allclose(p.grad, [6.0])


class TestGradCheckPrimitives:
    """Each primitive's backward vs central finite differences."""

    @pytest.mark.parametrize("build", [
        lambda p, x: ad.total(ad.tanh(ad.matmul(p["w"], x))),
        lambda p, x: ad.total(ad.sigmoid(ad.concat(
            [ad.add(ad.matmul(p["w"], x), p["b"]), t64([100.0, -100.0])]))),
        lambda p, x: ad.total(ad.mul(ad.softmax(ad.matmul(p["w"], x)), p["b"])),
        lambda p, x: ad.total(ad.mul(ad.log_softmax(ad.matmul(p["w"], x)),
                                     ad.softmax(p["b"]))),
        lambda p, x: ad.total(ad.log(ad.clip(ad.softmax(ad.matmul(p["w"], x)),
                                             1e-12, 1.0))),
        lambda p, x: ad.pick(ad.concat([ad.matmul(p["w"], x), p["b"]]), 2),
        lambda p, x: ad.total(ad.narrow(ad.matmul(p["w"], x), 0, 1, 3)),
        lambda p, x: ad.total(ad.reshape(ad.mul(p["w"], p["w"]), (20,))),
        lambda p, x: ad.total(ad.rows(p["w"], [1, 1, 3])),
        lambda p, x: ad.total(ad.stack_rows([ad.matmul(p["w"], x), p["b"]])),
        lambda p, x: ad.total(ad.pick(ad.log_softmax(ad.mul(p["w"], p["w"])),
                                      [4, 0, 2, 4])),
        lambda p, x: ad.total(ad.mul(ad.scatter(
            ad.matmul(p["w"], x), [5, 0, 5, 2], ad.tanh(p["b"]), 6),
            t64(np.arange(1.0, 7.0)))),
    ])
    def test_backward_matches_finite_differences(self, build):
        rng = np.random.default_rng(42)
        params = {
            "w": p64(rng, (4, 5), "w"),
            "b": p64(rng, (4,), "b"),
        }
        x = t64(rng.normal(size=5))
        err = ad.grad_check(lambda: build(params, x),
                            list(params.values()))
        assert err < 1e-6

    def test_sub_neg_total_axis(self):
        rng = np.random.default_rng(43)
        w = p64(rng, (3, 4), "w")
        err = ad.grad_check(
            lambda: ad.total(ad.neg(ad.sub(ad.total(w, axis=0), 1.5))),
            [w])
        assert err < 1e-6

    def test_broadcast_bias_add(self):
        rng = np.random.default_rng(44)
        w = p64(rng, (5, 3), "w")
        b = p64(rng, (3,), "b")
        err = ad.grad_check(
            lambda: ad.total(ad.tanh(ad.add(w, b))), [w, b])
        assert err < 1e-6


class TestSavedArrays:
    """A backward closure keeps its operands' nodes and only the arrays
    its formula reads, so an output no backward reads dies with the
    forward."""

    def test_unread_output_dies_and_read_output_survives(self):
        rng = np.random.default_rng(45)
        w = p64(rng, (3, 4), "w")
        with ad.Tape() as tape:
            total = ad.add(w, w)
            summed = weakref.ref(total.data)
            squashed = ad.tanh(total)
            kept = weakref.ref(squashed.data)
            del total, squashed
            gc.collect()
            assert summed() is None     # tanh reads its own output
            assert kept() is not None
            assert len(tape.nodes) == 2     # one node per taped output
            tape.backward(ad.total(ad.tanh(ad.add(w, w))))
        np.testing.assert_allclose(
            w.grad, 2 * (1 - np.tanh(2 * w.data) ** 2), rtol=0, atol=1e-12)

    def test_scatter_adds_repeated_columns_and_gathers_back(self):
        base = ad.Parameter(np.array([[1.0, 2.0], [3.0, 4.0]]), "base")
        values = ad.Parameter(np.array([[0.5, 0.25, 2.0],
                                        [1.0, 3.0, 5.0]]), "values")
        with ad.Tape() as tape:
            out = ad.scatter(base, [3, 0, 3], values, 4)
            np.testing.assert_array_equal(
                out.data, [[1.25, 2.0, 0.0, 2.5], [6.0, 4.0, 0.0, 6.0]])
            g = np.arange(8.0).reshape(2, 4)
            tape.backward(ad.total(ad.mul(out, ad.Tensor(g))))
        np.testing.assert_array_equal(base.grad, g[:, :2])
        np.testing.assert_array_equal(values.grad, g[:, [3, 0, 3]])

    @pytest.mark.parametrize("index, size", [
        ([0, 1], 4), ([0, 1, 4], 4), ([0, -1, 2], 4), ([0, 1, 2], 1)])
    def test_scatter_rejects_bad_shapes(self, index, size):
        with pytest.raises(ad.ShapeError, match="scatter"):
            ad.scatter(t64(np.ones((2, 2))), index, t64(np.ones((2, 3))),
                       size)


class TestAttentionScores:
    """`attention_scores` against the primitives it replaces in
    `Model.attend`: add, tanh, reshape and matmul."""

    @staticmethod
    def operands(rng, dtype, rows, source_len=5, hidden=4):
        lead = () if rows is None else (rows,)
        keys, query, v = (
            ad.Parameter(rng.uniform(-1.0, 1.0, size=shape).astype(dtype),
                         name)
            for shape, name in (((source_len, hidden), "keys"),
                                (lead + (hidden,), "query"), ((hidden,), "v")))
        probe = ad.Tensor(rng.normal(size=lead + (source_len,)).astype(dtype))
        return keys, query, v, probe

    @pytest.mark.parametrize("rows", [None, 3], ids=["vector", "rows"])
    def test_backward_matches_finite_differences(self, rows):
        keys, query, v, probe = self.operands(np.random.default_rng(21),
                                              np.float64, rows)
        err = ad.grad_check(
            lambda: ad.total(ad.mul(ad.attention_scores(keys, query, v),
                                    probe)), [keys, query, v])
        assert err < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [None, 1, 3], ids=["vector", "one",
                                                       "rows"])
    def test_forward_matches_composition_bit_for_bit(self, rows, dtype):
        keys, query, v, _ = self.operands(np.random.default_rng(22), dtype,
                                          rows, source_len=7, hidden=16)
        got = ad.attention_scores(keys, query, v).data
        want = attention_scores_composite(keys, query, v).data
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [None, 3], ids=["vector", "rows"])
    def test_backward_matches_composition(self, rows):
        keys, query, v, probe = self.operands(np.random.default_rng(23),
                                              np.float64, rows)
        grads = []
        for scores in (ad.attention_scores, attention_scores_composite):
            ad.zero_grads([keys, query, v])
            with ad.Tape() as tape:
                tape.backward(ad.total(ad.mul(scores(keys, query, v),
                                              probe)))
            grads.append([p.grad.copy() for p in (keys, query, v)])
        for got, want in zip(*grads):
            assert np.abs(want).max() > 0
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_saves_operands_not_the_tanh(self):
        keys, query, v, probe = self.operands(np.random.default_rng(24),
                                              np.float64, 3)
        with ad.Tape() as tape:
            ad.attention_scores(keys, query, v)
            assert len(tape.nodes) == 1
            saved = [cell.cell_contents
                     for cell in tape.nodes[0].backward.__closure__]
        arrays = [a for a in saved if isinstance(a, np.ndarray)]
        assert {id(a) for a in arrays} == {id(keys.data), id(query.data),
                                           id(v.data)}

    @pytest.mark.parametrize("operand", [0, 1, 2], ids=["keys", "query",
                                                       "v"])
    def test_non_finite_input_names_the_primitive(self, operand):
        operands = self.operands(np.random.default_rng(25), np.float64, 3)[:3]
        operands[operand].data.flat[2] = np.nan
        with pytest.raises(ad.NonFiniteError, match="attention_scores"):
            ad.attention_scores(*operands)

    @pytest.mark.parametrize("shapes", [
        ((5, 4), (3,), (4,)), ((5, 4), (4,), (5,)), ((5, 4), (2, 3, 4), (4,)),
        ((4,), (4,), (4,))])
    def test_bad_shapes_raise_shape_error(self, shapes):
        with pytest.raises(ad.ShapeError, match="attention_scores"):
            ad.attention_scores(*(t64(np.ones(s)) for s in shapes))


class TestUniformInit:
    CHUNK = ad._INIT_CHUNK

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (7,), (CHUNK,), (CHUNK // 4, 4), (2 * CHUNK + 5,), (3, CHUNK // 2 + 1),
        (0, 4)], ids=["below", "at", "at-2d", "across", "across-2d", "empty"])
    def test_matches_one_full_draw_bit_for_bit(self, shape, dtype):
        chunked, whole = np.random.default_rng(17), np.random.default_rng(17)
        got = ad.uniform_init(chunked, shape, 0.3, dtype)
        want = whole.uniform(-0.3, 0.3, size=shape).astype(dtype)
        assert got.shape == shape and got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        assert chunked.bit_generator.state == whole.bit_generator.state


class TestRowsBackward:
    @pytest.mark.parametrize("indices", [
        [4, 0, 2], [2, 2, 0, 2], [1, -4], [3, 1, 0, 2, 4], []],
        ids=["distinct", "repeated", "negative-alias", "permutation", "none"])
    def test_scatter_matches_add_at_bit_for_bit(self, indices):
        # distinct rows take a fancy-index add, repeated ones np.add.at;
        # either way the gradient is what np.add.at gives
        rng = np.random.default_rng(16)
        table = p64(rng, (5, 3), "table")
        table.grad = rng.normal(size=(5, 3))
        g = rng.normal(size=(len(indices), 3))
        want = table.grad.copy()
        np.add.at(want, np.asarray(indices, dtype=np.int64), g)
        with ad.Tape() as tape:
            out = ad.rows(table, indices)
            tape.backward(ad.total(ad.mul(out, t64(g))))
        np.testing.assert_array_equal(table.grad, want)


class TestLstmCell:
    def test_zero_params_zero_state_give_zero_outputs(self):
        rng = np.random.default_rng(5)
        params = ad.LstmParams(3, 4, "cell", rng, dtype=np.float64)
        params.w.data[...] = 0.0
        h = t64(np.zeros(4))
        c = t64(np.zeros(4))
        h2, c2 = lstm_step(t64([1.0, -2.0, 0.5]), h, c, params)
        np.testing.assert_array_equal(h2.data, np.zeros(4))
        np.testing.assert_array_equal(c2.data, np.zeros(4))

    def test_saturated_forget_gate_preserves_cell(self):
        rng = np.random.default_rng(6)
        params = ad.LstmParams(2, 3, "cell", rng, dtype=np.float64)
        params.w.data[...] = 0.0
        # forget bias strongly positive, input gate strongly negative
        params.b.data[3:6] = 50.0
        params.b.data[0:3] = -50.0
        c = t64([0.3, -0.7, 1.1])
        _, c2 = lstm_step(t64([5.0, -5.0]), t64(np.zeros(3)), c, params)
        np.testing.assert_allclose(c2.data, c.data, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = ad.LstmParams(3, 4, "cell", rng, dtype=np.float64)
        x = t64(rng.normal(size=3))
        h0 = t64(np.zeros(4))
        c0 = t64(np.zeros(4))

        def f():
            h1, c1 = lstm_step(x, h0, c0, params)
            h2, _ = lstm_step(x, h1, c1, params)
            return ad.total(ad.mul(h2, h2))

        err = ad.grad_check(f, params.parameters())
        assert err < 1e-6

    @pytest.mark.parametrize("rows", [None, 5])
    def test_input_and_state_gradients_match_finite_differences(self, rows):
        # through lstm_input into lstm_cell, twice, for vectors and rows:
        # the input, both states and both blocks of w take gradients
        rng = np.random.default_rng(17)
        params = ad.LstmParams(3, 4, "cell", rng, dtype=np.float64, scale=0.5)
        params.b.data[...] = rng.uniform(-0.5, 0.5, size=params.b.shape)
        lead = () if rows is None else (rows,)
        x, h0, c0 = (p64(rng, lead + (size,), name, scale=1.0)
                     for size, name in ((3, "x"), (4, "h0"), (4, "c0")))
        probe = t64(rng.normal(size=lead + (4,)))

        def f():
            zx = ad.lstm_input(x, params)
            h1, c1 = ad.lstm_cell(zx, h0, c0, params)
            h2, c2 = ad.lstm_cell(zx, h1, c1, params)
            return ad.add(ad.total(ad.mul(h2, probe)), ad.total(c2))

        err = ad.grad_check(f, params.parameters() + [x, h0, c0])
        assert err < 1e-6

    def test_batched_rows_match_vector_calls(self):
        rng = np.random.default_rng(8)
        params = ad.LstmParams(3, 4, "cell", rng, dtype=np.float64)
        xs = rng.normal(size=(5, 3))
        h0 = t64(np.zeros((5, 4)))
        c0 = t64(np.zeros((5, 4)))
        hb, cb = lstm_step(t64(xs), h0, c0, params)
        for r in range(5):
            hv, cv = lstm_step(t64(xs[r]), t64(np.zeros(4)),
                               t64(np.zeros(4)), params)
            np.testing.assert_allclose(hb.data[r], hv.data, atol=1e-12)
            np.testing.assert_allclose(cb.data[r], cv.data, atol=1e-12)

    # (x, h, c) shapes: vectors, rows, and rows over one shared cell state
    CELL_SHAPES = {"vector": ((3,), (4,), (4,)),
                   "rows": ((5, 3), (5, 4), (5, 4)),
                   "shared_c": ((5, 3), (5, 4), (4,))}

    @pytest.mark.parametrize("used", ["h", "c", "both"])
    @pytest.mark.parametrize("shape", sorted(CELL_SHAPES))
    def test_matches_primitive_composition(self, shape, used):
        # against [x || h] @ w + b as one product: the split projection
        # zx + h @ w[E:] rounds differently, so forward values and the
        # gradients through either output or both agree within 1e-12
        rng = np.random.default_rng(12)
        params = ad.LstmParams(3, 4, "cell", rng, dtype=np.float64, scale=0.5)
        params.b.data[...] = rng.uniform(-0.5, 0.5, size=params.b.shape)
        x_shape, h_shape, c_shape = self.CELL_SHAPES[shape]
        x, h, c = (p64(rng, s_, name, scale=1.0) for s_, name in
                   ((x_shape, "x"), (h_shape, "h"), (c_shape, "c")))
        probe = t64(rng.normal(size=(2,) + h_shape))
        trainable = params.parameters() + [x, h, c]
        results = []
        for cell in (lstm_step, lstm_cell_composite):
            ad.zero_grads(trainable)
            with ad.Tape() as tape:
                h_new, c_new = cell(x, h, c, params)
                terms = [ad.total(ad.mul(out, ad.row(probe, k)))
                         for k, out in enumerate((h_new, c_new))
                         if used in ("both", "hc"[k])]
                tape.backward(terms[0] if len(terms) == 1
                              else ad.add(*terms))
            results.append(((h_new.data, c_new.data),
                            {p.name: p.grad.copy() for p in trainable}))
        (fused, fused_grads), (reference, reference_grads) = results
        for a, b in zip(fused, reference):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        for name, g in reference_grads.items():
            assert np.abs(g).max() > 0, name
            np.testing.assert_allclose(fused_grads[name], g, rtol=0,
                                       atol=1e-12, err_msg=name)

    def test_non_finite_state_is_an_error(self):
        rng = np.random.default_rng(13)
        params = ad.LstmParams(2, 3, "cell", rng, dtype=np.float64)
        c = t64([0.0, np.inf, 0.0])
        with pytest.raises(ad.NonFiniteError, match="lstm_cell"):
            lstm_step(t64([1.0, 2.0]), t64(np.zeros(3)), c, params)

    def test_bad_shapes_raise_shape_error(self):
        params = ad.LstmParams(2, 3, "cell", np.random.default_rng(15),
                               dtype=np.float64)
        zeros = t64(np.zeros(3))
        with pytest.raises(ad.ShapeError, match="lstm_input"):
            ad.lstm_input(t64(np.ones(3)), params)
        # the unprojected input, and rows against a vector state
        with pytest.raises(ad.ShapeError, match="lstm_cell"):
            ad.lstm_cell(t64(np.ones(2)), zeros, zeros, params)
        with pytest.raises(ad.ShapeError, match="lstm_cell"):
            ad.lstm_cell(ad.lstm_input(t64(np.ones((2, 2))), params), zeros,
                         zeros, params)


# a chain; a stack pointer whose rows 1, 3 and 6 continue row 0 and rows
# 4 and 5 row 3; chains that restart from (h0, c0)
SCAN_PARENTS = {
    "chain": [-1, 0, 1, 2, 3, 4, 5],
    "stack": [-1, 0, 1, 0, 3, 3, 0],
    "restarts": [-1, 0, -1, 2, 1, -1, 5],
}


class TestLstmScan:
    """`lstm_input` then `lstm_scan` against one step per row, in
    float64."""

    @staticmethod
    def _case(initial):
        rng = np.random.default_rng(14)
        params = ad.LstmParams(3, 4, "cell", rng, dtype=np.float64, scale=0.5)
        params.b.data[...] = rng.uniform(-0.5, 0.5, size=params.b.shape)
        x = p64(rng, (7, 3), "x", scale=1.0)
        if initial == "parameters":
            h0, c0 = p64(rng, (4,), "h0"), p64(rng, (4,), "c0")
        else:
            h0, c0 = t64(np.zeros(4)), t64(np.zeros(4))
        probe = t64(rng.normal(size=(7, 4)))
        return params, x, h0, c0, probe

    @staticmethod
    def _trainable(params, x, h0, c0):
        return params.parameters() + [x] + [
            t for t in (h0, c0) if isinstance(t, ad.Parameter)]

    @pytest.mark.parametrize("initial", ["parameters", "zeros"])
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    @pytest.mark.parametrize("shape", sorted(SCAN_PARENTS))
    def test_backward_matches_finite_differences(self, shape, order, initial):
        params, x, h0, c0, probe = self._case(initial)
        parents = SCAN_PARENTS[shape]

        def f():
            rows = x if order == "forward" else ad.rows(x, range(6, -1, -1))
            hs = lstm_input_scan(rows, parents, h0, c0, params)
            return ad.total(ad.mul(hs, probe))

        err = ad.grad_check(f, self._trainable(params, x, h0, c0))
        assert err < 1e-6

    @pytest.mark.parametrize("initial", ["parameters", "zeros"])
    @pytest.mark.parametrize("shape", sorted(SCAN_PARENTS))
    def test_matches_lstm_cell_fold(self, shape, initial):
        params, x, h0, c0, probe = self._case(initial)
        trainable = self._trainable(params, x, h0, c0)
        results = []
        for run in (lstm_input_scan, lstm_cell_fold):
            ad.zero_grads(trainable)
            with ad.Tape() as tape:
                hs = run(x, SCAN_PARENTS[shape], h0, c0, params)
                tape.backward(ad.total(ad.mul(hs, probe)))
            results.append((hs.data, {p.name: p.grad.copy()
                                      for p in trainable}))
            if initial == "zeros":   # constants take no gradient
                assert h0.grad is None and c0.grad is None
        (scan, scan_grads), (fold, fold_grads) = results
        np.testing.assert_allclose(scan, fold, rtol=0, atol=1e-12)
        for name, g in fold_grads.items():
            assert np.abs(g).max() > 0, name
            np.testing.assert_allclose(scan_grads[name], g, rtol=0,
                                       atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("shape, levels", [
        ("chain", [1] * 7), ("stack", [1, 3, 3]), ("restarts", [3, 3, 1])])
    def test_one_lstm_cell_per_level(self, monkeypatch, shape, levels):
        params, x, h0, c0, _ = self._case("parameters")
        rows = []
        cell = ad.lstm_cell

        def counted(zx, h, c, cell_params):
            rows.append(zx.shape[0])
            return cell(zx, h, c, cell_params)
        monkeypatch.setattr(ad, "lstm_cell", counted)
        hs = lstm_input_scan(x, SCAN_PARENTS[shape], h0, c0, params)
        assert rows == levels and hs.shape == (7, 4)

    def test_forward_only_without_a_tape(self):
        params, x, h0, c0, _ = self._case("parameters")
        hs = lstm_input_scan(x, SCAN_PARENTS["stack"], h0, c0, params)
        assert hs.node is None and hs.shape == (7, 4)

    def test_no_rows_give_no_states(self):
        params, x, h0, c0, _ = self._case("parameters")
        with ad.Tape():
            hs = lstm_input_scan(ad.rows(x, []), [], h0, c0, params)
        assert hs.shape == (0, 4)

    @pytest.mark.parametrize("parents", [
        [-1, 0, 1], [-1, 0, 1, 2, 3, 4, 5, 6], [-1, 0, 2, 2, 3, 4, 5],
        [-1, 0, 1, 2, 9, 4, 5], [-2, 0, 1, 2, 3, 4, 5], [-1, 0, 1, 2, -3, 4, 5],
        [0, 0, 1, 2, 3, 4, 5]])
    def test_bad_parents_raise_shape_error(self, parents):
        params, x, h0, c0, _ = self._case("zeros")
        with pytest.raises(ad.ShapeError, match="parents"):
            lstm_input_scan(x, parents, h0, c0, params)

    def test_bad_shapes_raise_shape_error(self):
        params, x, h0, c0, _ = self._case("zeros")
        chain = SCAN_PARENTS["chain"]
        with pytest.raises(ad.ShapeError, match="rows"):
            ad.lstm_scan(x, chain, h0, c0, params)   # not projected
        with pytest.raises(ad.ShapeError, match="initial state"):
            lstm_input_scan(x, chain, t64(np.zeros(3)), c0, params)

    def test_non_finite_output_is_an_error(self):
        params, x, h0, c0, _ = self._case("zeros")
        zx = ad.lstm_input(x, params)
        zx.data[2, 0] = np.nan
        with pytest.raises(ad.NonFiniteError, match="lstm_scan"):
            ad.lstm_scan(zx, SCAN_PARENTS["chain"], h0, c0, params)


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(9)
        w = p64(rng, (6, 6), "w")
        x = t64(rng.normal(size=6))

        def run():
            return ad.softmax(ad.tanh(ad.matmul(w, x))).data.copy()

        first = run()
        for _ in range(3):
            np.testing.assert_array_equal(run(), first)


class TestCheckpoint:
    def test_round_trip_with_metadata(self, tmp_path):
        rng = np.random.default_rng(10)
        params = [
            ad.Parameter(ad.uniform_init(rng, (3, 4), 0.1, np.float32), "enc.w"),
            ad.Parameter(ad.uniform_init(rng, (7,), 0.1, np.float64), "dec.b"),
        ]
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, params, metadata={"hidden": 256})
        arrays, meta = ad.load_checkpoint(path)
        assert meta == {"hidden": 256}
        assert set(arrays) == {"enc.w", "dec.b"}
        np.testing.assert_array_equal(arrays["enc.w"], params[0].data)
        np.testing.assert_array_equal(arrays["dec.b"], params[1].data)
        assert arrays["enc.w"].dtype == np.float32
        assert arrays["dec.b"].dtype == np.float64

    def test_corruption_detected(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(
            path, [ad.Parameter(ad.uniform_init(rng, (4,)), "p")])
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ad.CheckpointError, match="checksum"):
            ad.load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 16)
        with pytest.raises(ad.CheckpointError, match="not a checkpoint"):
            ad.load_checkpoint(path)

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        rng = np.random.default_rng(13)
        target = tmp_path / "model.ckpt"
        target.mkdir()
        with pytest.raises(OSError):
            ad.save_checkpoint(
                target, [ad.Parameter(ad.uniform_init(rng, (4,)), "p")])
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_duplicate_names_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        params = [ad.Parameter(ad.uniform_init(rng, (2,)), "p"),
                  ad.Parameter(ad.uniform_init(rng, (3,)), "p")]
        with pytest.raises(ad.CheckpointError, match="duplicate"):
            ad.save_checkpoint(tmp_path / "x.ckpt", params)
