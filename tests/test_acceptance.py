"""Acceptance criteria, one test per criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines and
timings.  Expected values are either worked examples, outputs of the
independent brute-force oracles in helpers.py, or finite differences.
"""

import time

import numpy as np
import pytest

from treesum import autodiff as ad
from treesum import batching
from treesum import corpus as cp
from treesum import decoding
from treesum import metrics
from treesum import training
from treesum import transition as tr
from treesum.decoding import BeamConfig
from treesum.model import OP_INDEX, Model, ModelConfig

from helpers import (
    WALKTHROUGH_OPS,
    bruteforce_oracle,
    grad_check,
    random_gold_ops,
    random_projective_tree,
    seeded_rng,
    tree_state,
    walkthrough_tree,
    toy_corpus,
)
from test_batching import leaf_embeddings, sequential_reps, table_reps
from test_metrics import random_relations, strict_reference_match
from test_model import tiny_model


def report(number, text, elapsed):
    print(f"PASS criterion {number:2d}: {text} ({elapsed:.3f}s)")


@pytest.fixture(scope="module")
def overfit():
    """Criterion 7's trained model, shared by later criteria."""
    examples = toy_corpus(n=50, seed=13)
    in_vocab = cp.build_vocab(examples, "input", min_freq=1)
    out_vocab = cp.build_vocab(examples, "output")
    model = Model(ModelConfig(input_vocab_size=len(in_vocab),
                              output_vocab_size=len(out_vocab),
                              hidden_size=64, embed_size=64),
                  in_vocab, out_vocab, seed=13)
    config = training.TrainConfig(batch_size=10, epochs=200, seed=13,
                                  patience=1000)
    start = time.perf_counter()
    history = training.train(
        model, examples, config=config, log=None,
        stop=lambda row: (row["dev_op_acc"] >= 0.995
                          and row["dev_word_acc"] >= 0.97))
    elapsed = time.perf_counter() - start
    return {"model": model, "examples": examples, "history": history,
            "train_seconds": elapsed}


def test_criterion_01_transition_fidelity():
    tree = walkthrough_tree()
    start = time.perf_counter()
    ops = tr.oracle(tree)
    rebuilt = tr.execute(ops)
    elapsed = time.perf_counter() - start
    assert ops == WALKTHROUGH_OPS
    assert rebuilt.arcs() == tree.arcs()
    assert rebuilt.words == tree.words
    # warm second run for the timing bound
    start = time.perf_counter()
    tr.execute(tr.oracle(tree))
    assert time.perf_counter() - start < 1e-3
    report(1, "walkthrough oracle sequence and arc set reproduced exactly",
           elapsed)


def test_criterion_02_round_trip_property():
    start = time.perf_counter()
    rng = seeded_rng(101)
    exact = 0
    brute_checked = 0
    for _ in range(10_000):
        tree = random_projective_tree(rng, int(rng.integers(1, 13)))
        ops = tr.oracle(tree)
        back = tr.execute(ops)
        assert back.words == tree.words and back.heads == tree.heads
        exact += 1
        if len(tree) <= 6 and brute_checked < 400:
            assert ops == bruteforce_oracle(tree)
            brute_checked += 1
    elapsed = time.perf_counter() - start
    assert exact == 10_000
    assert brute_checked == 400
    assert elapsed < 30.0
    report(2, f"10000/10000 round trips exact, {brute_checked} brute-force "
              "agreements (n<=6)", elapsed)


def test_criterion_03_gradient_correctness():
    start = time.perf_counter()
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

    err = grad_check(f, m.parameters(), samples_per_param=4)
    elapsed = time.perf_counter() - start
    assert err < 1e-4
    assert elapsed < 60.0
    report(3, f"end-to-end loss gradient max relative error {err:.2e} < 1e-4",
           elapsed)


def test_criterion_04_distribution_sanity():
    start = time.perf_counter()
    rng = seeded_rng(103)
    sources = [["the", "cat", "sat"], ["cat", "zzz", "mat", "zzz"],
               ["qqq", "the"]]
    checked = 0
    worst = 0.0
    model_cache = {}
    while checked < 1000:
        seed = int(rng.integers(20))
        if seed not in model_cache:
            m = tiny_model(hidden=6, embed=6, seed=seed, dtype=np.float64)
            for p in m.parameters():
                p.data = rng.uniform(-0.5, 0.5, size=p.data.shape)
            model_cache[seed] = m
        m = model_cache[seed]
        src = m.prepare_source(sources[int(rng.integers(len(sources)))])
        # random reachable state
        state = m.initial_state()
        max_words = 4
        for _ in range(int(rng.integers(0, 6))):
            kinds = sorted(tr.valid_ops(state.symbolic, max_words))
            if not kinds:
                break
            kind = kinds[rng.integers(len(kinds))]
            op = tr.gen(src.tokens[int(rng.integers(len(src.tokens)))]) \
                if kind == tr.GEN else \
                (tr.RL if kind == tr.REDUCE_L else tr.RR)
            state = m.step(state, op)
        if state.is_terminal:
            continue
        ctx = m.attend(state.tree_h, state.seq_h, src)
        op_probs = ad.softmax(m.op_scores(state.tree_h, state.hist_h,
                                          ctx.context))
        word_dist, _ = m.predict_word(state.seq_h, state.tree_h, ctx, src)
        op_rows, word_rows = m.joint_step_distribution([state], src,
                                                       max_words)
        joint_op, joint_words = op_rows[0], word_rows[0]
        gen_mass = float(op_probs.data[OP_INDEX[tr.GEN]])
        checks = [
            abs(op_probs.data.sum() - 1.0),
            abs(word_dist.data.sum() - 1.0),
            abs(joint_op[OP_INDEX[tr.REDUCE_L]]
                + joint_op[OP_INDEX[tr.REDUCE_R]]
                + joint_words.sum() - 1.0) if joint_words.size else
            abs(joint_op.sum() - 1.0),
            # unmasked copy-mass identity: sum_w P(GEN(w)) = P(op = GEN)
            abs((gen_mass * word_dist.data).sum() - gen_mass),
        ]
        worst = max(worst, max(checks))
        assert max(checks) < 1e-6
        checked += 1
    elapsed = time.perf_counter() - start
    report(4, f"1000 random states: distributions sum to 1 "
              f"(worst residual {worst:.1e})", elapsed)


def test_criterion_05_batching_equivalence():
    start = time.perf_counter()
    m = tiny_model(hidden=6, embed=6, seed=29,
                   out_words=tuple("w%d" % i for i in range(8)),
                   dtype=np.float64)
    rng = seeded_rng(105)
    worst_forward = 0.0
    worst_grad = 0.0
    for _ in range(5):
        sequences = [random_gold_ops(rng, int(rng.integers(2, 9)))
                     for _ in range(8)]
        grads = {}
        for mode in ("batched", "sequential"):
            params = [m.compose_w, m.compose_b, m.out_embed]
            ad.zero_grads(params)
            with ad.Tape() as tape:
                # the op before the final RR builds the finished tree
                finals = [(i, len(ops) - 2) for i, ops in enumerate(sequences)]
                if mode == "batched":
                    batch_plan = batching.plan(sequences)
                    vecs = table_reps(batch_plan,
                                      batching.batched_compose(batch_plan, m),
                                      finals)
                    batched_values = vecs.data.copy()
                    loss = ad.total(ad.mul(vecs, vecs))
                else:
                    leaf = leaf_embeddings(m, sequences)
                    reps = dict(leaf)
                    for i, ops in enumerate(sequences):
                        reps.update(sequential_reps(m, i, ops, leaf))
                    loss = None
                    for got, key in zip(batched_values, finals):
                        worst_forward = max(worst_forward, np.abs(
                            got - reps[key].data).max())
                        term = ad.total(ad.mul(reps[key], reps[key]))
                        loss = term if loss is None else ad.add(loss, term)
                tape.backward(loss)
            grads[mode] = {p.name: p.grad.copy() for p in params}
        for name in grads["batched"]:
            worst_grad = max(worst_grad, np.abs(
                grads["batched"][name] - grads["sequential"][name]).max())
    elapsed = time.perf_counter() - start
    assert worst_forward < 1e-6
    assert worst_grad < 1e-5
    assert elapsed < 10.0
    report(5, f"grouped composition == sequential (forward "
              f"{worst_forward:.1e}, grads {worst_grad:.1e})", elapsed)


def test_criterion_06_stack_lstm_consistency():
    start = time.perf_counter()
    m = tiny_model(hidden=6, embed=6, seed=31,
                   out_words=tuple("w%d" % i for i in range(8)))
    rng = seeded_rng(106)
    state = m.initial_state()
    applied = 0
    worst = 0.0
    while applied < 1000:
        kinds = sorted(tr.valid_ops(state.symbolic, max_words=6))
        if not kinds:
            state = m.initial_state()
            continue
        kind = kinds[rng.integers(len(kinds))]
        op = tr.gen("w%d" % rng.integers(8)) if kind == tr.GEN else \
            (tr.RL if kind == tr.REDUCE_L else tr.RR)
        state = m.step(state, op)
        applied += 1
        scratch = tree_state(m, state.stack_reps)
        worst = max(worst, float(np.abs(state.tree_h.data
                                        - scratch.data).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    report(6, f"incremental stack-LSTM == from-scratch over 1000 ops "
              f"(max abs diff {worst:.1e})", elapsed)


def test_criterion_07_overfit_smoke(overfit):
    model = overfit["model"]
    examples = overfit["examples"]
    history = overfit["history"]
    assert len(history) <= 200
    final = history[-1]
    assert final["dev_op_acc"] >= 0.99
    assert final["dev_word_acc"] >= 0.95
    hits = 0
    beam = BeamConfig(beam_size=1, max_words=4)
    for ex in examples:
        src = model.prepare_source(ex.source)
        hyp = decoding.greedy_decode(model, src, beam)
        hits += int(tuple(hyp.ops) == tuple(cp.linearize(ex)))
    assert hits >= 45
    assert overfit["train_seconds"] < 600.0
    report(7, f"overfit in {len(history)} epochs "
              f"(op acc {final['dev_op_acc']:.3f}, word acc "
              f"{final['dev_word_acc']:.3f}), greedy reproduces {hits}/50",
           overfit["train_seconds"])


def test_criterion_08_beam_properties(overfit):
    start = time.perf_counter()
    model = overfit["model"]
    examples = overfit["examples"]
    config = BeamConfig(beam_size=1, max_words=4)
    # K=1 equals greedy on 100 inputs: 50 trained + 50 on a random model
    random_model = tiny_model(hidden=6, embed=6, seed=41, dtype=np.float64)
    spread = seeded_rng(108)
    for p in random_model.parameters():
        p.data = spread.uniform(-0.4, 0.4, size=p.data.shape)
    checked = 0
    for m in (model, random_model):
        for ex in examples:
            src = m.prepare_source(ex.source)
            beam = decoding.beam_search(m, src, config)
            greedy = decoding.greedy_decode(m, src, config)
            assert beam.ops == greedy.ops
            checked += 1
    assert checked == 100

    decodes = 0
    for seed in range(20):
        m = tiny_model(hidden=5, embed=5, seed=seed, dtype=np.float64)
        rng = seeded_rng(1000 + seed)
        for p in m.parameters():
            p.data = rng.uniform(-0.4, 0.4, size=p.data.shape)
        for ex in examples:
            src = m.prepare_source(ex.source)
            hyp = decoding.greedy_decode(m, src, BeamConfig(
                beam_size=1, max_words=4))
            summary, tree = decoding.decode_output(hyp)
            tr.execute(hyp.ops)  # always executable
            assert list(tree.words) == summary
            decodes += 1
    assert decodes == 1000
    elapsed = time.perf_counter() - start
    report(8, "K=1 == greedy on 100 inputs; 1000 decodes all executable "
              "with tree words == summary", elapsed)


def test_criterion_09_metric_fidelity():
    start = time.perf_counter()
    value = metrics.rouge_n("a man escaped".split(),
                            "a man escaped from prison".split(), 1)
    assert value == pytest.approx((1.0, 0.6, 0.75))

    rng = seeded_rng(109)
    vocab = ["w%d" % i for i in range(6)]
    table = metrics.EmbeddingTable(vocab, rng.normal(size=(len(vocab), 4)))
    for _ in range(1000):
        pred = random_relations(rng, int(rng.integers(0, 6)), vocab)
        target = random_relations(rng, int(rng.integers(0, 6)), vocab)
        assert metrics.relation_f(pred, target, table, sigma=1.0) == \
            pytest.approx(strict_reference_match(pred, target))

    sigmas = (1.0, 0.9, 0.8, 0.7)
    for _ in range(200):
        pred = random_relations(rng, int(rng.integers(1, 7)), vocab)
        target = random_relations(rng, int(rng.integers(1, 7)), vocab)
        fs = [metrics.relation_f(pred, target, table, s)[2] for s in sigmas]
        assert all(earlier <= later + 1e-12
                   for earlier, later in zip(fs, fs[1:]))
    elapsed = time.perf_counter() - start
    report(9, "hand-counted ROUGE, strict equivalence at sigma=1.0, "
              "monotone lenient sweep", elapsed)


def test_criterion_10_carry_rule(overfit):
    start = time.perf_counter()
    model = overfit["model"]
    ex = overfit["examples"][0]
    src = model.prepare_source(ex.source)
    hyp = decoding.beam_search(model, src, BeamConfig(beam_size=3,
                                                      max_words=4))
    assert any(op.kind != tr.GEN for op in hyp.ops)
    state = model.initial_state()
    for op in hyp.ops:
        before = state.seq_h.data
        state = model.step(state, op)
        if op.kind != tr.GEN:
            assert state.seq_h.data.tobytes() == before.tobytes()
    elapsed = time.perf_counter() - start
    report(10, "summary state bitwise-carried across every reduce step "
               "of a full decode trace", elapsed)
