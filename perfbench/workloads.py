"""The benchmark's workloads.

Each workload builds its state in ``setup`` (inputs, model, warm-up),
runs one pass of its fixed job in ``job`` (the timed part), and checks a
pass's output in ``check`` and the whole run in ``final_checks``, both
outside the timed region.  Checks return (name, passed) pairs; every
check and every train step, decode record and eval run counts as one
attempted operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from time import perf_counter

import numpy as np

import gen

PAPER_SIZE = 256
TOY_SIZE = 64
TOY_EPOCHS = 3
TOY_LR = "0.01"          # reaches 3-word natural-stop decodes in 3 epochs
TOY_PAIRS = 50
TOY_BATCH = 10
TOY_DECODES = 10
EVAL_RECORDS = 10
CLI_BEAM = 10
CLI_MAX_WORDS = 60       # the CLI default; step limit 2 * 60
SIGMAS = "1.0,0.9,0.8,0.7"
PIN_BIAS = 20.0          # saturates tanh in the op hidden layer
PIN_MARGIN = 30.0        # GEN over reduce, in nats


def gen_words(ops, ts):
    return [op.word for op in ops if op.kind == ts.GEN]


def examples(ts, records):
    return [ts.Example(source=r["source"], summary=r["summary"],
                       heads=r["heads"]) for r in records]


def paper_model(ts, seed):
    """A paper-shaped model over the generated 3k/10k vocabularies."""
    in_vocab = ts.Vocabulary(gen.input_tokens())
    out_vocab = ts.Vocabulary(gen.output_tokens())
    config = ts.ModelConfig(input_vocab_size=len(in_vocab),
                            output_vocab_size=len(out_vocab),
                            hidden_size=PAPER_SIZE, embed_size=PAPER_SIZE)
    return ts.Model(config, in_vocab, out_vocab, seed=seed)


def pin_lengths(ts, model):
    """Make every hypothesis generate until max_words, then reduce.

    A large positive op-hidden bias saturates that layer, so the op
    scores are the column sums of ``op_out_w``; giving GEN a margin of
    PIN_MARGIN nats keeps both reduces out of every hypothesis's top-k
    while GEN is allowed, yet above zero once it is masked.  A decode of
    n words therefore takes exactly 2n operations.  Only public parameter
    arrays are touched.
    """
    gen_index = ts.model.OP_INDEX[ts.GEN]
    model.op_hidden_b.data[:] = PIN_BIAS
    model.op_out_w.data[:] = 0.0
    model.op_out_w.data[:, gen_index] = PIN_MARGIN / model.config.hidden_size


class PaperTrain:
    """One epoch of `treesum.train` per pass; the model keeps training
    from pass to pass, as it would over epochs."""

    batch = 8

    def setup(self, ts, seed, workdir):
        rng = np.random.default_rng([seed, 0])
        train = gen.paper_set(seed, 1, gen.spread_lengths(rng, self.batch))
        dev = gen.paper_set(seed, 2, gen.spread_lengths(rng, 2))
        warm = examples(ts, gen.paper_set(seed, 3, [4]))
        model = paper_model(ts, seed)
        ts.train(model, warm, warm, config=ts.TrainConfig(batch_size=1,
                                                          epochs=1))
        return {"ts": ts, "model": model, "train": examples(ts, train),
                "dev": examples(ts, dev),
                "config": ts.TrainConfig(batch_size=self.batch, epochs=1,
                                         seed=seed)}

    def job(self, state):
        history = state["ts"].train(state["model"], state["train"],
                                    state["dev"], config=state["config"])
        return history[-1]

    def operations(self, state, output):
        return math.ceil(len(state["train"]) / self.batch)

    def check(self, state, output):
        return [("train and dev loss finite",
                 math.isfinite(output["train_loss"])
                 and math.isfinite(output["dev_loss"]))]

    def final_checks(self, state, outputs):
        return []

    def stages(self, state, outputs, times):
        return {"train_epoch_s": float(np.median(times))}


class PaperDecode:
    """Beam search over a fixed source set with a length-pinned model."""

    def __init__(self, beam_size, count, greedy_checks):
        self.beam_size = beam_size
        self.count = count
        self.greedy_checks = greedy_checks

    def setup(self, ts, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        records = gen.paper_set(seed, 5, gen.spread_lengths(rng, self.count))
        model = paper_model(ts, seed)
        pin_lengths(ts, model)
        warm = model.prepare_source(records[0]["source"])
        ts.beam_search(model, warm, ts.BeamConfig(
            beam_size=self.beam_size, max_words=2))
        return {"ts": ts, "model": model,
                "jobs": [(r["source"], ts.BeamConfig(
                    beam_size=self.beam_size, max_words=len(r["summary"])))
                    for r in records]}

    def job(self, state):
        ts, model = state["ts"], state["model"]
        out = []
        for source, config in state["jobs"]:
            hyp = ts.beam_search(model, model.prepare_source(source), config)
            out.append(hyp)
        return out

    def operations(self, state, output):
        return len(output)

    def check(self, state, output):
        ts = state["ts"]
        checks = []
        for hyp, (_, config) in zip(output, state["jobs"]):
            ok = hyp.complete and len(hyp.ops) == 2 * config.max_words
            if ok:
                summary, tree = ts.decode_output(hyp)   # executes the ops
                ok = list(tree.words) == summary == gen_words(hyp.ops, ts)
            checks.append(("decode complete, 2*max_words ops, rebuilds", ok))
        return checks

    def final_checks(self, state, outputs):
        first = [hyp.ops for hyp in outputs[0]]
        checks = [("decodes identical across passes",
                   all([hyp.ops for hyp in out] == first for out in outputs))]
        ts, model = state["ts"], state["model"]
        for (source, config), ops in list(zip(state["jobs"], first))[
                :self.greedy_checks]:
            greedy = ts.greedy_decode(model, model.prepare_source(source),
                                      config)
            checks.append(("K=1 beam equals greedy", greedy.ops == ops))
        return checks

    def stages(self, state, outputs, times):
        key = "decode_k%d_sent_per_s" % self.beam_size
        return {key: len(state["jobs"]) / float(np.median(times))}


class CliPipeline:
    """oracle, train, decode and eval through `treesum.cli.run`."""

    def setup(self, ts, seed, workdir):
        # a one-epoch pipeline on 10 pairs, 1 decode and 1 eval record
        # first, so first-call costs stay out of the timed passes
        warm = cli_paths(gen.write_cli_inputs(
            seed, os.path.join(workdir, "warm"), 10, 1, 1, embeddings=False))
        run_cli(ts, self.argv(warm, epochs=1))
        paths = cli_paths(gen.write_cli_inputs(
            seed, workdir, TOY_PAIRS, TOY_DECODES, EVAL_RECORDS))
        return {"ts": ts, "paths": paths}

    def argv(self, paths, epochs=TOY_EPOCHS):
        size = str(TOY_SIZE)
        evaluate = ["eval", "--decoded", paths["decoded"],
                    "--reference", paths["reference"],
                    "--source-parses", paths["parses"],
                    "--sigmas", SIGMAS, "--workers", "1",
                    "--out", paths["report"]]
        if "embeddings" in paths:
            evaluate += ["--embeddings", paths["embeddings"]]
        return [
            ["oracle", "--corpus", paths["corpus"], "--out", paths["oracle"]],
            ["train", "--corpus", paths["corpus"], "--out", paths["model"],
             "--hidden-size", size, "--embed-size", size, "--min-freq", "1",
             "--batch-size", str(TOY_BATCH), "--epochs", str(epochs),
             "--lr", TOY_LR, "--patience", str(epochs + 1), "--seed", "13"],
            ["decode", "--checkpoint", paths["model"],
             "--input", paths["test"], "--out", paths["decodes"],
             "--beam-size", str(CLI_BEAM), "--max-words", str(CLI_MAX_WORDS),
             "--workers", "1"],
            evaluate,
        ]

    def job(self, state):
        return run_cli(state["ts"], self.argv(state["paths"]))

    def operations(self, state, output):
        steps = TOY_EPOCHS * math.ceil(TOY_PAIRS / TOY_BATCH)
        return steps + TOY_DECODES + 2   # oracle run and eval run

    def check(self, state, output):
        ts, paths = state["ts"], state["paths"]
        checks = [("%s exit status 0" % name, rc == 0)
                  for name, rc, _ in output]
        if any(rc != 0 for _, rc, _ in output):
            return checks
        with open(paths["oracle"], encoding="utf-8") as fh:
            checks.append(("oracle sequence per pair",
                           len(fh.read().splitlines()) == TOY_PAIRS))
        with open(paths["model"] + ".log", encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()]
        checks.append(("train and dev loss finite",
                       len(rows) == TOY_EPOCHS and all(
                           math.isfinite(float(r[1]))
                           and math.isfinite(float(r[2])) for r in rows)))
        checks += check_decodes(ts, paths["decodes"])
        checks.append(("eval report rows in [0, 1]",
                       check_report(paths["report"], EVAL_RECORDS)))
        return checks

    def final_checks(self, state, outputs):
        ts = state["ts"]
        model = ts.Model.load(state["paths"]["model"])
        config = ts.BeamConfig(beam_size=1, max_words=CLI_MAX_WORDS)
        checks = []
        for record in gen.toy_corpus(5):
            src = model.prepare_source(record["source"])
            checks.append(("K=1 beam equals greedy",
                           ts.beam_search(model, src, config).ops
                           == ts.greedy_decode(model, src, config).ops))
        return checks

    def stages(self, state, outputs, times):
        seconds = {name: float(np.median([t for out in outputs
                                          for n, _, t in out if n == name]))
                   for name, _, _ in outputs[0]}
        return {"train_epoch_s": seconds["train"] / TOY_EPOCHS,
                "decode_k10_sent_per_s": TOY_DECODES / seconds["decode"],
                "eval_rec_per_s": EVAL_RECORDS / seconds["eval"],
                "oracle_s": seconds["oracle"]}


def cli_paths(inputs):
    """Input paths plus the paths the CLI writes, in the same directory."""
    directory = os.path.dirname(inputs["corpus"])
    outputs = {role: os.path.join(directory, name) for role, name in (
        ("oracle", "oracle.txt"), ("model", "model.ckpt"),
        ("decodes", "decoded.jsonl"), ("report", "report.tsv"))}
    return {**inputs, **outputs}


def run_cli(ts, commands):
    """Run CLI commands in order; (command, exit status, seconds) each.

    The CLI prints training progress to stdout, which belongs to the
    benchmark's result line, so it is captured here."""
    results = []
    for argv in commands:
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = ts.cli.run(argv)
        results.append((argv[0], rc, perf_counter() - start))
        if rc != 0:
            break
    return results


def check_decodes(ts, path):
    """Every decode record is complete, ends before the step limit and
    rebuilds a tree whose words are its summary."""
    checks = []
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    checks.append(("one decode per source", len(records) == TOY_DECODES))
    for record in records:
        try:
            ops = ts.ops_from_text(record["ops"])
            tree = ts.execute(ops)
            ok = (list(tree.words) == record["summary"].split()
                  == gen_words(ops, ts)
                  and " ".join(map(str, tree.heads)) == record["heads"]
                  and len(ops) < 2 * CLI_MAX_WORDS)
        except ts.TransitionError:
            ok = False
        checks.append(("decode complete, natural stop, rebuilds", ok))
    return checks


def check_report(path, records):
    """Per-record and macro rows present; every score lies in [0, 1]."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [line.split("\t") for line in lines
            if line and not line.startswith("#")]
    per_record = [r for r in rows if r[0].isdigit() and len(r) > 4]
    macro = [r for r in rows if r[0] == "macro"]
    values = [float(v) for r in per_record + macro for v in r[1:]]
    sweep = [float(v) for r in rows if len(r) == 4 for v in r[1:]]
    return (len(per_record) == records and len(macro) == 1 and bool(sweep)
            and all(0.0 <= v <= 1.0 for v in values + sweep))


WORKLOADS = {
    "paper_train": PaperTrain(),
    "paper_decode_k1": PaperDecode(beam_size=1, count=8, greedy_checks=2),
    "paper_decode_k10": PaperDecode(beam_size=10, count=2, greedy_checks=0),
    "cli_pipeline": CliPipeline(),
}
