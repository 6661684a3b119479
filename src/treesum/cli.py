"""Command-line entry points: oracle, train, decode, eval.

Configuration is a flat key/value registry resolvable from three layers
with rising precedence: built-in defaults, a ``key = value`` config file
(``--config``), and per-key command-line flags.  Unknown keys are
rejected.  Every command that writes an artifact also writes the resolved
configuration next to it (``<output>.config``), and output files are
written atomically so failed runs leave nothing partial behind.  Decode
and eval map one record runner over their records, in this process or in
a process pool; eval scores each record into one flat row of ROUGE values
and relation-match counts, and reduces its report from those rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np

from . import autodiff as ad
from . import corpus as cp
from . import decoding
from . import metrics
from . import training
from . import transition as tr
from .files import atomic_output
from .model import Model, ModelConfig, ModelError

logger = logging.getLogger(__name__)

# the TrainConfig fields, in the key order the echoed .config file keeps
_TRAIN_KEYS = ("batch_size", "lr", "beta1", "beta2", "eps", "grad_clip",
              "weight_decay", "epochs", "patience", "seed")


def _field_defaults(config_class, names):
    """key -> (type, default) of each named field, in the given order; the
    type is the default's."""
    defaults = {f.name: f.default for f in dataclasses.fields(config_class)}
    return {name: (type(defaults[name]), defaults[name]) for name in names}


# key -> (type, default)
CONFIG_SPEC = {
    **_field_defaults(ModelConfig,
                      ("hidden_size", "embed_size", "encoder_layers")),
    "min_freq": (int, cp.INPUT_MIN_FREQ),
    "output_vocab_size": (int, cp.OUTPUT_MAX_SIZE),
    "max_source_len": (int, cp.DEFAULT_MAX_SOURCE_LEN),
    "max_summary_len": (int, cp.DEFAULT_MAX_SUMMARY_LEN),
    **_field_defaults(training.TrainConfig, _TRAIN_KEYS),
    **_field_defaults(decoding.BeamConfig, ("beam_size", "max_words")),
    "max_steps": (int, 0),        # 0 means the 2 * max_words default
    **_field_defaults(decoding.BeamConfig, ("length_norm",)),
    "workers": (int, 1),
}


class CliError(Exception):
    pass


class UsageError(CliError):
    """A setting out of range; exits 2, as argparse does for a bad flag."""


@contextmanager
def settings_check():
    """Report a config class's range error as a `UsageError`
    (`decoding.DecodingError` is a `ModelError`)."""
    try:
        yield
    except (training.TrainingError, ModelError) as e:
        raise UsageError(e) from e


def _check_at_least_one(config, *keys):
    """Reject a count or size setting below 1, which would run serially,
    drop the rarest output word or filter out every example unannounced."""
    for key in keys:
        if config[key] < 1:
            raise UsageError(f"{key} must be at least 1")


def _parse_value(key, raw):
    kind, _ = CONFIG_SPEC[key]
    try:
        return kind(raw)
    except ValueError:
        raise CliError(f"config key {key!r}: cannot parse {raw!r} as "
                       f"{kind.__name__}")


def load_config_file(path):
    values, first_set = {}, {}
    for lineno, line in cp.text_lines(path, CliError):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_SPEC:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_set:
            raise CliError(f"{path}:{lineno}: config key {key!r} repeated "
                           f"(first set at line {first_set[key]})")
        first_set[key] = lineno
        try:
            values[key] = _parse_value(key, raw)
        except CliError as e:
            raise CliError(f"{path}:{lineno}: {e}") from e
    return values


def resolve_config(args):
    """defaults < config file < explicit flags."""
    resolved = {key: default for key, (_, default) in CONFIG_SPEC.items()}
    if getattr(args, "config", None):
        resolved.update(load_config_file(args.config))
    for key in CONFIG_SPEC:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def echo_config(config, command, inputs, out_path):
    record = {"command": command, "inputs": inputs, "config": config}
    with atomic_output(f"{out_path}.config") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    logger.info("resolved config written to %s.config", out_path)


def _add_config_flags(parser, keys):
    for key in keys:
        kind, default = CONFIG_SPEC[key]
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            type=kind, default=None,
                            help=f"{key} (default {default})")


def _load_and_filter(path, config):
    examples = cp.load_corpus(path)
    retained, stats = cp.filter_examples(
        examples, max_source_len=config["max_source_len"],
        max_summary_len=config["max_summary_len"])
    if stats:
        logger.info("%s: dropped %d of %d examples (%s)", path,
                    len(examples) - len(retained), len(examples),
                    ", ".join(f"{k}={v}" for k, v in sorted(stats.items())))
    if not retained:
        raise CliError(f"{path}: no usable examples after filtering")
    return retained


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args):
    config = resolve_config(args)
    _check_at_least_one(config, "max_source_len", "max_summary_len")
    examples = _load_and_filter(args.corpus, config)
    lines = []
    for i, ex in enumerate(examples):
        ops = cp.linearize(ex)
        back = tr.execute(ops)
        if list(back.words) != ex.summary or list(back.heads) != ex.heads:
            raise CliError(f"round trip failed for example {i}")
        lines.append(tr.ops_to_text(ops))
    if args.out:
        with atomic_output(args.out) as fh:
            fh.write("\n".join(lines) + "\n")
        echo_config(config, "oracle", {"corpus": args.corpus}, args.out)
        logger.info("%d sequences written to %s (all round trips verified)",
                    len(lines), args.out)
    else:
        for line in lines:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args):
    config = resolve_config(args)
    _check_at_least_one(config, "output_vocab_size", "max_source_len",
                        "max_summary_len")
    with settings_check():
        train_config = training.TrainConfig(
            **{key: config[key] for key in _TRAIN_KEYS})
    train_examples = _load_and_filter(args.corpus, config)
    dev_examples = _load_and_filter(args.dev, config) if args.dev else None

    in_vocab = cp.build_vocab(train_examples, "input",
                              min_freq=config["min_freq"])
    out_vocab = cp.build_vocab(train_examples, "output",
                               max_size=config["output_vocab_size"])
    with settings_check():   # the vocabulary sizes come from the corpus
        model_config = ModelConfig(
            input_vocab_size=len(in_vocab),
            output_vocab_size=len(out_vocab),
            hidden_size=config["hidden_size"],
            embed_size=config["embed_size"],
            encoder_layers=config["encoder_layers"],
            max_source_len=config["max_source_len"],
        )
    model = Model(model_config, in_vocab, out_vocab, seed=config["seed"])

    log_path = f"{args.out}.log"
    with open(log_path, "w", encoding="utf-8") as log_fh:
        def log_line(line):
            print(line)
            log_fh.write(line + "\n")
            log_fh.flush()

        training.train(model, train_examples, dev_examples,
                       config=train_config, checkpoint_path=args.out,
                       log=log_line)
    echo_config(config, "train",
                {"corpus": args.corpus, "dev": args.dev}, args.out)
    logger.info("best checkpoint at %s, log at %s", args.out, log_path)
    return 0


# ---------------------------------------------------------------------------
# decode, and the record runner eval shares
# ---------------------------------------------------------------------------

_WORKER_STATE = {}


def _map_records(workers, init, initargs, fn, items, chunksize):
    """``fn`` over ``items`` after ``init(*initargs)`` has filled
    `_WORKER_STATE`; the results in input order.  ``init`` first runs in
    this process, so a bad checkpoint fails here with its own error and
    not as a dead worker; one worker then maps here too.  The state is
    cleared afterwards, also when a record fails, so a loaded model or
    embedding table is not kept past the run; more workers run in a
    process pool of at most one process per item, as a pool starts all
    its processes at once."""
    workers = min(workers, len(items))
    try:
        init(*initargs)
        if workers <= 1:
            return [fn(item) for item in items]
    finally:
        _WORKER_STATE.clear()
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=init,
                                 initargs=initargs) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    except BrokenProcessPool as e:
        raise CliError(f"a worker process failed: {e}") from e


def _decode_worker_init(checkpoint, beam, input_path):
    _WORKER_STATE["model"] = Model.load(checkpoint)
    _WORKER_STATE["beam"] = beam
    _WORKER_STATE["input"] = input_path


def _decode_one(item):
    """Decode the ``(number from 1, tokens)`` record of the input file."""
    number, tokens = item
    model = _WORKER_STATE["model"]
    beam = _WORKER_STATE["beam"]
    try:
        src = model.prepare_source(tokens)
    except ModelError as e:
        raise CliError(f"{_WORKER_STATE['input']}: record {number}: "
                       f"{e}") from e
    hyp = decoding.beam_search(model, src, beam)
    summary, tree = decoding.decode_output(hyp)
    return {
        "summary": " ".join(summary),
        "ops": tr.ops_to_text(hyp.ops),
        "heads": " ".join(str(h) for h in tree.heads),
        "score": hyp.score,
    }


def cmd_decode(args):
    config = resolve_config(args)
    with settings_check():
        beam = decoding.BeamConfig(
            beam_size=config["beam_size"], max_words=config["max_words"],
            max_steps=config["max_steps"] or None,
            length_norm=config["length_norm"])
    _check_at_least_one(config, "workers")
    examples = cp.load_corpus(args.input, require_heads=False)
    if not examples:
        raise CliError(f"{args.input}: no records")
    records = _map_records(
        config["workers"], _decode_worker_init,
        (args.checkpoint, beam, args.input), _decode_one,
        list(enumerate((ex.source for ex in examples), start=1)),
        chunksize=4)
    with atomic_output(args.out) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    echo_config(config, "decode",
                {"checkpoint": args.checkpoint, "input": args.input},
                args.out)
    logger.info("%d decodes written to %s", len(records), args.out)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _parse_heads(where, heads, n):
    """Integer heads of an n-word parse, each in 0..n (0 is the root)."""
    heads = cp.parse_heads(where, heads, CliError)
    if len(heads) != n:
        raise CliError(f"{where}: {len(heads)} heads for {n} words")
    if not all(0 <= h <= n for h in heads):
        raise CliError(f"{where}: heads must lie in 0..{n}")
    return heads


def _load_decodes(path):
    records = []
    for lineno, record in cp.json_records(path, CliError):
        for field in ("summary", "heads"):
            if field not in record:
                raise CliError(f"{path}:{lineno}: missing {field!r}")
        if not isinstance(record["summary"], str):
            raise CliError(f"{path}:{lineno}: 'summary' must be a string")
        summary = cp.tokenize(record["summary"])   # as references are
        heads = _parse_heads(f"{path}:{lineno}",
                             str(record["heads"]).split(), len(summary))
        records.append((summary, heads))
    return records


def _load_parses(path):
    parses = []
    for lineno, record in cp.json_records(path, CliError):
        if "words" not in record or "heads" not in record:
            raise CliError(f"{path}:{lineno}: need 'words' and 'heads'")
        words = record["words"]
        if not (isinstance(words, list) and isinstance(record["heads"], list)
                and all(isinstance(w, str) for w in words)):
            raise CliError(f"{path}:{lineno}: 'words' must be a list of "
                           f"strings and 'heads' a list")
        heads = _parse_heads(f"{path}:{lineno}", record["heads"], len(words))
        parses.append(([w.lower() for w in words], heads))
    return parses


def _parse_sigmas(raw):
    """The --sigmas thresholds: distinct numbers in (0, 1]."""
    if raw is None:
        return (1.0, 0.9, 0.8, 0.7)
    sigmas = []
    for item in raw.split(","):
        try:
            sigma = float(item)
        except ValueError:
            raise UsageError(f"sigmas: cannot parse {item!r} as a number")
        if not 0.0 < sigma <= 1.0:   # nan fails here too
            raise UsageError(f"sigmas: {item!r} does not lie in (0, 1]")
        if sigma in sigmas:
            raise UsageError(f"sigmas: {item!r} is repeated")
        sigmas.append(sigma)
    return tuple(sigmas)


def _eval_worker_init(sigmas, table):
    _WORKER_STATE["sigmas"] = sigmas
    _WORKER_STATE["table"] = table


_ROUGE_FIELDS = 9   # ROUGE-1, -2 and -L, each (P, R, F)


def _score_record(item):
    """One flat row for a ``(system, reference words, *target relations)``
    item: ROUGE-1, -2 and -L as (P, R, F), then for each relation target
    (reference, then source) and each sigma the raw (matched, predicted,
    target) counts, so both macro and pooled sweeps reduce from the rows."""
    (summary, heads), reference, *targets = item
    sigmas = _WORKER_STATE["sigmas"]
    table = _WORKER_STATE["table"]
    row = [*metrics.rouge_n(summary, reference, 1),
           *metrics.rouge_n(summary, reference, 2),
           *metrics.rouge_l(summary, reference)]
    system_relations = metrics.relations_from_heads(summary, heads)
    for relations in targets:
        for sigma in sigmas:
            row.extend(metrics.relation_matches(system_relations, relations,
                                                table, sigma))
    return row


def _sweep_sections(rows, start, sigmas, title):
    """Macro and pooled sigma/P/R/F rows for the relation target whose
    counts begin at ``start`` in each row.  Macro averages per-instance
    scores (the headline); pooled sums match counts before scoring."""
    macro = [f"# relation preservation vs {title}, macro: sigma\tP\tR\tF"]
    pooled = [f"# relation preservation vs {title}, pooled: sigma\tP\tR\tF"]
    for at, sigma in zip(range(start, start + 3 * len(sigmas), 3), sigmas):
        counts = [row[at:at + 3] for row in rows]
        triples = [metrics.prf(*c) for c in counts]
        p, r, f = (float(np.mean(column)) for column in zip(*triples))
        macro.append(f"{sigma}\t{p:.4f}\t{r:.4f}\t{f:.4f}")
        p, r, f = metrics.prf(*(sum(column) for column in zip(*counts)))
        pooled.append(f"{sigma}\t{p:.4f}\t{r:.4f}\t{f:.4f}")
    return macro + pooled


def cmd_eval(args):
    config = resolve_config(args)
    _check_at_least_one(config, "workers")
    sigmas = _parse_sigmas(args.sigmas)
    decodes = _load_decodes(args.decoded)
    if not decodes:
        raise CliError(f"{args.decoded}: no records")
    references = cp.load_corpus(args.reference)
    if len(decodes) != len(references):
        raise CliError(
            f"{args.decoded}: {len(decodes)} decodes for "
            f"{len(references)} references")
    source_parses = _load_parses(args.source_parses) \
        if args.source_parses else None
    if source_parses is not None and len(source_parses) != len(decodes):
        raise CliError(
            f"{args.source_parses}: {len(source_parses)} parses for "
            f"{len(decodes)} decodes")
    table = metrics.load_embeddings(args.embeddings) \
        if args.embeddings else None
    if table is not None and len(table) == 0:
        raise CliError(f"{args.embeddings}: no vectors")

    items = []
    for i, (system, ref_ex) in enumerate(zip(decodes, references)):
        try:
            item = (system, ref_ex.summary,
                    metrics.relations_from_heads(ref_ex.summary, ref_ex.heads))
        except metrics.MetricsError as e:
            raise CliError(f"{args.reference}: record {i + 1}: {e}")
        if source_parses is not None:
            item += (metrics.relations_from_heads(*source_parses[i]),)
        items.append(item)
    rows = _map_records(config["workers"], _eval_worker_init,
                        (sigmas, table), _score_record, items, chunksize=16)

    # each relation target's title and F column, and where its counts begin
    targets = [("reference", "relref_f")] + (
        [("source", "relsrc_f")] if source_parses is not None else [])
    starts = [_ROUGE_FIELDS + 3 * len(sigmas) * t for t in range(len(targets))]
    columns = ["index", "r1_p", "r1_r", "r1_f", "r2_p", "r2_r", "r2_f",
               "rl_p", "rl_r", "rl_f"] + [column for _, column in targets]
    lines = ["#" + "\t".join(columns)]
    sums = np.zeros(len(columns) - 1)
    for i, row in enumerate(rows):
        # the relation F at the first sigma
        values = row[:_ROUGE_FIELDS] + [metrics.prf(*row[at:at + 3])[2]
                                        for at in starts]
        sums += np.array(values)
        lines.append("\t".join([str(i)] + [f"{v:.4f}" for v in values]))
    macro = sums / len(rows)
    lines.append("\t".join(["macro"] + [f"{v:.4f}" for v in macro]))
    for (title, _), start in zip(targets, starts):
        lines.append("")
        lines.extend(_sweep_sections(rows, start, sigmas, title))

    if args.out:
        with atomic_output(args.out) as fh:
            fh.write("\n".join(lines) + "\n")
        echo_config(config, "eval",
                    {"decoded": args.decoded, "reference": args.reference,
                     "source_parses": args.source_parses,
                     "embeddings": args.embeddings, "sigmas": list(sigmas)},
                    args.out)
    else:
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="treesum",
        description="joint abstractive summarization and dependency parsing")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    oracle = sub.add_parser(
        "oracle", help="linearize a corpus into operation sequences")
    oracle.add_argument("--corpus", required=True)
    oracle.add_argument("--out", help="write sequences here; default stdout")
    oracle.add_argument("--config")
    _add_config_flags(oracle, ["max_source_len", "max_summary_len"])
    oracle.set_defaults(func=cmd_oracle)

    train = sub.add_parser("train", help="fit a model on a corpus")
    train.add_argument("--corpus", required=True)
    train.add_argument("--dev")
    train.add_argument("--out", required=True, help="checkpoint path")
    train.add_argument("--config")
    _add_config_flags(train, [
        "hidden_size", "embed_size", "encoder_layers", "min_freq",
        "output_vocab_size", "max_source_len", "max_summary_len",
        "batch_size", "lr", "beta1", "beta2", "eps", "grad_clip",
        "weight_decay", "epochs", "patience", "seed"])
    train.set_defaults(func=cmd_train)

    decode = sub.add_parser("decode", help="beam-search a test file")
    decode.add_argument("--checkpoint", required=True)
    decode.add_argument("--input", required=True)
    decode.add_argument("--out", required=True)
    decode.add_argument("--config")
    _add_config_flags(decode, ["beam_size", "max_words", "max_steps",
                               "length_norm", "workers"])
    decode.set_defaults(func=cmd_decode)

    evaluate = sub.add_parser(
        "eval", help="score decodes against references")
    evaluate.add_argument("--decoded", required=True)
    evaluate.add_argument("--reference", required=True)
    evaluate.add_argument("--source-parses", dest="source_parses")
    evaluate.add_argument("--embeddings")
    evaluate.add_argument("--sigmas",
                          help="comma-separated distinct thresholds in "
                               "(0, 1], default 1.0,0.9,0.8,0.7")
    evaluate.add_argument("--out", help="report path; default stdout")
    evaluate.add_argument("--config")
    _add_config_flags(evaluate, ["workers"])
    evaluate.set_defaults(func=cmd_eval)
    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (CliError, cp.CorpusError, tr.TransitionError,
            training.TrainingError, metrics.MetricsError, ModelError,
            ad.AutodiffError,
            OSError) as e:
        print(f"treesum {args.command}: {e}", file=sys.stderr)
        return 2 if isinstance(e, UsageError) else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
