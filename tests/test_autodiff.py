"""Autodiff core: primitives, LSTM cell, backward, checkpoints."""

import numpy as np
import pytest

from treesum import autodiff as ad


def t64(values):
    return ad.Tensor(np.asarray(values, dtype=np.float64))


def p64(rng, shape, name, scale=0.5):
    return ad.Parameter(ad.uniform_init(rng, shape, scale, np.float64), name)


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


class TestBackward:
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


class TestLstmCell:
    def test_zero_params_zero_state_give_zero_outputs(self):
        rng = np.random.default_rng(5)
        params = ad.LstmParams(3, 4, "cell", rng, dtype=np.float64)
        params.w.data[...] = 0.0
        h = t64(np.zeros(4))
        c = t64(np.zeros(4))
        h2, c2 = ad.lstm_cell(t64([1.0, -2.0, 0.5]), h, c, params)
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
        _, c2 = ad.lstm_cell(t64([5.0, -5.0]), t64(np.zeros(3)), c, params)
        np.testing.assert_allclose(c2.data, c.data, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = ad.LstmParams(3, 4, "cell", rng, dtype=np.float64)
        x = t64(rng.normal(size=3))
        h0 = t64(np.zeros(4))
        c0 = t64(np.zeros(4))

        def f():
            h1, c1 = ad.lstm_cell(x, h0, c0, params)
            h2, _ = ad.lstm_cell(x, h1, c1, params)
            return ad.total(ad.mul(h2, h2))

        err = ad.grad_check(f, params.parameters())
        assert err < 1e-6

    def test_batched_rows_match_vector_calls(self):
        rng = np.random.default_rng(8)
        params = ad.LstmParams(3, 4, "cell", rng, dtype=np.float64)
        xs = rng.normal(size=(5, 3))
        h0 = t64(np.zeros((5, 4)))
        c0 = t64(np.zeros((5, 4)))
        hb, cb = ad.lstm_cell(t64(xs), h0, c0, params)
        for r in range(5):
            hv, cv = ad.lstm_cell(t64(xs[r]), t64(np.zeros(4)),
                                  t64(np.zeros(4)), params)
            np.testing.assert_allclose(hb.data[r], hv.data, atol=1e-12)
            np.testing.assert_allclose(cb.data[r], cv.data, atol=1e-12)


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

    def test_duplicate_names_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        params = [ad.Parameter(ad.uniform_init(rng, (2,)), "p"),
                  ad.Parameter(ad.uniform_init(rng, (3,)), "p")]
        with pytest.raises(ad.CheckpointError, match="duplicate"):
            ad.save_checkpoint(tmp_path / "x.ckpt", params)
