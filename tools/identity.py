"""Check that a change to treesum keeps its parent's decodes and gradients.

Run from anywhere, with numpy only:

    python3 tools/identity.py --parent 3a08df5

``--parent`` is a git revision of this repository, whose ``src/`` is
exported with ``git archive`` into a temporary directory, or a directory
holding a checkout, whose ``src/`` is used as it stands.  The other side
is the checkout this script sits in.  Each side runs in its own process
on the same inputs, from this checkout's ``perfbench/gen.py``, and saves
each seed's results as they are made; the two sides are then compared
one seed's part at a time:

- pinned float32 decodes, as in the benchmark's paper_decode workloads
  (every hypothesis generates until ``max_words``, then reduces), at each
  seed of ``--seeds`` and beam size of ``--beams``;
- the same decodes with a step limit of ``max_words``, half the natural
  length, so that `decoding.force_complete` closes every result;
- float32 and float64 freshly built weights per seed, so a change to
  weight initialisation is checked directly;
- float32 and float64 ``training.batch_loss`` gradients on ``--pairs``
  paper-shaped pairs per seed;
- the sha256 of the checkpoint ``Model.save`` writes of each of those
  fresh models, and the weights ``Model.load`` reads back from it;
- the final weights of a short ``training.train`` per seed on the toy
  corpus, whose dev losses are scripted (``DEV_LOSSES``) so that it
  restores an earlier epoch and stops early;
- the bytes of the report ``treesum eval`` writes per seed for the
  benchmark's eval inputs: the decodes, references and source parses of
  ``gen.eval_set``, the vectors of ``gen.embedding_lines`` and the
  benchmark's sigmas, with the benchmark's own eval command line.

It prints one JSON line: whether every decode, and every forced decode,
has the same ops, the largest score delta of both, per dtype the largest
weight delta, the largest loss delta and the largest gradient delta per
parameter, whether every checkpoint is byte-equal, the largest delta of
the loaded weights, the largest final-weight delta of the training
runs, and whether every eval report is byte-equal.  It exits 1 when the
ops of either kind of decode differ, or an eval report does.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
DECODE_SOURCES = {1: 8, 10: 2}   # per beam size, as the benchmark decodes
DTYPES = ("float32", "float64")
# epoch 2 is best and patience 2 ends the run after epoch 4
DEV_LOSSES = (3.0, 2.0, 2.5, 2.6, 2.7, 2.8)


def _ints(text):
    return [int(v) for v in text.split(",")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision, or a checkout directory")
    parser.add_argument("--seeds", type=_ints, default=[1, 2, 3])
    parser.add_argument("--beams", type=_ints, default=[1, 10])
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# One side: runs in a process that imports that side's package
# ---------------------------------------------------------------------------

def paper_model(ts, gen, seed, dtype):
    in_vocab = ts.Vocabulary(gen.input_tokens())
    out_vocab = ts.Vocabulary(gen.output_tokens())
    size = 256
    config = ts.ModelConfig(input_vocab_size=len(in_vocab),
                            output_vocab_size=len(out_vocab),
                            hidden_size=size, embed_size=size)
    return ts.Model(config, in_vocab, out_vocab, seed=seed, dtype=dtype)


def pinned_decodes(ts, model, records, beam, forced):
    """Ops and scores of `beam_search` over ``records`` on a pinned model,
    with ``max_words`` each summary's length n.  A pinned decode takes 2n
    steps; ``forced`` limits it to n, so `force_complete` must add the
    reduces, and a result that fits the limit is an error."""
    ops, scores = [], []
    for record in records:
        words = len(record["summary"])
        config = ts.BeamConfig(beam_size=beam, max_words=words,
                               max_steps=words if forced else None)
        hyp = ts.beam_search(model, model.prepare_source(record["source"]),
                             config)
        if forced and len(hyp.ops) <= config.step_limit:
            raise SystemExit(f"a decode of {words} words was not forced")
        ops.append(" ".join(str(op) for op in hyp.ops))
        scores.append(hyp.score)
    return np.array(ops), np.array(scores)


def save_and_load(ts, model, directory):
    """The sha256 of ``model``'s checkpoint and the weights `Model.load`
    reads back from it."""
    path = os.path.join(directory, "model.ckpt")
    model.save(path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return digest, {p.name: p.data for p in ts.Model.load(path).parameters()}


def toy_train(ts, examples, seed):
    """The final weights of a short `train` on ``examples`` whose dev
    losses are ``DEV_LOSSES``, whatever the weights."""
    in_vocab = ts.build_vocab(examples, "input", min_freq=1)
    out_vocab = ts.build_vocab(examples, "output")
    config = ts.ModelConfig(input_vocab_size=len(in_vocab),
                            output_vocab_size=len(out_vocab),
                            hidden_size=16, embed_size=16)
    model = ts.Model(config, in_vocab, out_vocab, seed=seed)
    losses = iter(DEV_LOSSES)
    ts.training.evaluate = lambda *args: (next(losses),
                                          ts.training.StepStats())
    history = ts.train(model, examples, config=ts.TrainConfig(
        batch_size=4, epochs=len(DEV_LOSSES), patience=2, seed=seed))
    if len(history) != 4:
        raise SystemExit(f"toy train ran {len(history)} epochs, not 4")
    return {p.name: p.data for p in model.parameters()}


def eval_report(cli, gen, workloads, seed, directory):
    """The bytes of the report the benchmark's eval command writes for its
    inputs at ``seed``, written under ``directory``."""
    paths = workloads.cli_paths(gen.write_cli_inputs(
        seed, directory, 1, 1, workloads.EVAL_RECORDS))
    if cli.run(workloads.CliPipeline().argv(paths)[-1]) != 0:
        raise SystemExit(f"treesum eval failed at seed {seed}")
    with open(paths["report"], "rb") as fh:
        return np.frombuffer(fh.read(), dtype=np.uint8)


def run_side(src, args):
    """Decode ops and scores, fresh weights, gradients, checkpoints and
    their loaded weights, toy-trained weights and eval reports of the
    package under ``src``, saved under the directory ``args.out`` one part
    at a time: each seed's decodes, each of its dtypes, each toy training
    and each eval report, so a side holds one model's arrays at a time."""
    sys.path[:0] = [src, PERFBENCH]
    import gen
    import treesum as ts
    import workloads
    from treesum import autodiff as ad
    from treesum import cli
    from treesum import training

    if not os.path.abspath(ts.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"treesum imported from {ts.__file__}, not {src}")
    os.makedirs(args.out)

    def save(part, arrays):
        np.savez(os.path.join(args.out, f"{part}.npz"), **arrays)

    for seed in args.seeds:
        model = paper_model(ts, gen, seed, np.float32)
        workloads.pin_lengths(ts, model)
        out = {}
        for beam in args.beams:
            count = DECODE_SOURCES.get(beam, 2)
            rng = np.random.default_rng([seed, 4])
            records = gen.paper_set(seed, 5, gen.spread_lengths(rng, count))
            for prefix, forced in (("", False), ("forced_", True)):
                (out[f"{prefix}ops/{seed}/{beam}"],
                 out[f"{prefix}scores/{seed}/{beam}"]) = pinned_decodes(
                    ts, model, records, beam, forced)
        save(f"{seed}-decode", out)
        rng = np.random.default_rng([seed, 0])
        pairs = gen.paper_set(seed, 1, gen.spread_lengths(rng, args.pairs))
        instances = [(ex.source, tuple(ts.corpus.linearize(ex)))
                     for ex in workloads.examples(ts, pairs)]
        for dtype in DTYPES:
            model = paper_model(ts, gen, seed, np.dtype(dtype))
            out = {f"weight/{seed}/{dtype}/{p.name}": p.data
                   for p in model.parameters()}
            digest, loaded = save_and_load(ts, model,
                                           os.path.dirname(args.out))
            out[f"checkpoint/{seed}/{dtype}"] = np.array(digest)
            for name, data in loaded.items():
                out[f"loaded/{seed}/{dtype}/{name}"] = data
            ad.zero_grads(model.parameters())
            with ad.Tape() as tape:
                loss, _ = training.batch_loss(model, instances)
                tape.backward(loss)
            out[f"loss/{seed}/{dtype}"] = np.array(loss.item())
            for p in model.parameters():
                out[f"grad/{seed}/{dtype}/{p.name}"] = p.grad
            save(f"{seed}-{dtype}", out)
            del model, loaded, out
    toy = workloads.examples(ts, gen.toy_corpus(12))
    for seed in args.seeds:
        save(f"{seed}-trained", {f"trained/{seed}/{name}": data for name, data
                                 in toy_train(ts, toy, seed).items()})
    directory = os.path.join(os.path.dirname(args.out), "eval")
    for seed in args.seeds:
        save(f"{seed}-eval", {f"eval_report/{seed}": eval_report(
            cli, gen, workloads, seed, directory)})


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def export(rev, directory):
    """``src/`` of a git revision of this repository, under
    ``directory``; a directory argument is used as it stands."""
    if os.path.isdir(rev):
        return os.path.join(os.path.abspath(rev), "src")
    blob = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(directory, filter="data")
    return os.path.join(directory, "src")


def run_worker(src, args, out):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, os.path.abspath(__file__), "--worker", src,
               "--out", out, "--parent", "-",
               "--seeds", ",".join(map(str, args.seeds)),
               "--beams", ",".join(map(str, args.beams)),
               "--pairs", str(args.pairs)]
    subprocess.run(command, check=True, env=env)


def compare(parent, change):
    """The JSON report of two sides' saved results: directories of the
    same ``.npz`` parts, read one pair of parts at a time."""
    report = {"ops_equal": True, "decodes": 0,
              "forced_ops_equal": True, "forced_decodes": 0,
              "score_delta": 0.0,
              "weight_delta": {d: 0.0 for d in DTYPES},
              "loss_delta": {d: 0.0 for d in DTYPES},
              "grad_delta": {d: {} for d in DTYPES},
              "checkpoint_equal": True, "load_delta": 0.0,
              "train_weight_delta": 0.0, "eval_report_equal": True}
    for part in sorted(os.listdir(parent)):
        with np.load(os.path.join(parent, part)) as old, \
                np.load(os.path.join(change, part)) as new:
            for key in sorted(old.files):
                _compare_key(report, key, old[key], new[key])
    return report


def _compare_key(report, key, a, b):
    """Fold one saved result of both sides into ``report``."""
    kind, *rest = key.split("/")
    if kind in ("ops", "forced_ops"):
        prefix = kind.removesuffix("ops")
        report[f"{prefix}ops_equal"] &= bool(np.array_equal(a, b))
        report[f"{prefix}decodes"] += a.size
        return
    if kind in ("checkpoint", "eval_report"):
        report[f"{kind}_equal"] &= bool(np.array_equal(a, b))
        return
    delta = float(np.abs(a.astype(np.float64) - b).max())
    if kind in ("scores", "forced_scores"):
        report["score_delta"] = max(report["score_delta"], delta)
    elif kind in ("trained", "loaded"):
        key = "train_weight_delta" if kind == "trained" else "load_delta"
        report[key] = max(report[key], delta)
    elif kind in ("weight", "loss"):
        deltas = report[f"{kind}_delta"]
        deltas[rest[1]] = max(deltas[rest[1]], delta)
    else:
        dtype, name = rest[1], rest[2]
        grads = report["grad_delta"][dtype]
        grads[name] = max(grads.get(name, 0.0), delta)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.worker:
        run_side(args.worker, args)
        return 0
    with tempfile.TemporaryDirectory(prefix="treesum-identity-") as tmp:
        sides = {"parent": export(args.parent, os.path.join(tmp, "parent")),
                 "change": os.path.join(ROOT, "src")}
        for side, src in sides.items():
            run_worker(src, args, os.path.join(tmp, side + "-results"))
        report = {"parent": args.parent,
                  **compare(os.path.join(tmp, "parent-results"),
                            os.path.join(tmp, "change-results"))}
    print(json.dumps(report))
    return 0 if (report["ops_equal"] and report["forced_ops_equal"]
                 and report["eval_report_equal"]) else 1


if __name__ == "__main__":
    sys.exit(main())
