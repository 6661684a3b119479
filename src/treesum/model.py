"""Joint summary/parse decoder architecture.

A bidirectional encoder reads the source; three recurrent components track
the decoder's progress: a stack-LSTM over the partial trees on the stack,
a sequential LSTM over the summary words emitted so far, and an LSTM over
the operation history.  Attention over source states feeds both the
operation head (3-way) and the word head, which mixes vocabulary
generation with copying from the source through a learned switch.

In decoding the stack-LSTM is maintained incrementally by `Model.step`:
GEN pushes the new word embedding, a reduce pops two entries and pushes
their composition, both through one tree-LSTM push.  By construction the
incremental states coincide with re-running the LSTM over the current
stack bottom-to-top.  Every LSTM splits its pre-activations as
``z = zx + h @ w[E:]``: the input projection ``zx`` is one
`autodiff.lstm_input` node over all the rows a recurrence reads, and
only the recurrent product runs per step, in `autodiff.lstm_cell`.  The
encoder takes a batch of sources and runs them in lockstep (operation
batching, Neubig et al. 2017): each layer and direction is one
`autodiff.lstm_input` and one `autodiff.lstm_scan` over one chain per
source, which steps one `autodiff.lstm_cell` per time step over the rows
of the sources still running, so a batch of B sources costs as many cells
as its longest source; decoding encodes a batch of one.  Under teacher
forcing every decoder recurrence's input is known up front, so training
runs each one over the whole batch the same way (see
`training.teacher_forced_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import transition as tr

# Fixed ordering of operation kinds; also the deterministic tie-break
# order during decoding.
OP_ORDER = (tr.REDUCE_L, tr.REDUCE_R, tr.GEN)
OP_INDEX = {kind: i for i, kind in enumerate(OP_ORDER)}


class ModelError(Exception):
    pass


class DecodingError(ModelError):
    """A decode that cannot go on.  `Model.joint_step_distribution` raises
    it for a terminal state, the one place that check is made."""


class SourceError(ModelError):
    """A source the encoder cannot take, at position ``index`` of its
    batch."""

    def __init__(self, index, reason):
        super().__init__(f"source {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass
class ModelConfig:
    input_vocab_size: int
    output_vocab_size: int
    hidden_size: int = 256
    embed_size: int = 256
    encoder_layers: int = 2
    max_source_len: int = 100

    def __post_init__(self):
        for name in ("input_vocab_size", "output_vocab_size", "hidden_size",
                     "embed_size", "encoder_layers", "max_source_len"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive")

    def to_dict(self):
        return dict(self.__dict__)


@dataclass
class EncoderStates:
    """Per-token source representations, one row per token (forward and
    backward top-layer states concatenated), plus their attention keys.

    ``keys`` is ``matrix @ attn_enc_w``: it depends on the source only, so
    it is computed once per source and shared by every decoder step.
    """

    matrix: ad.Tensor  # (source_len, 2 * hidden)
    keys: ad.Tensor    # (source_len, hidden)

    def __len__(self):
        return self.matrix.shape[0]


@dataclass
class ContextVector:
    """Attention result; a leading row axis when the query had one."""

    context: ad.Tensor  # (2 * hidden,) or (rows, 2 * hidden)
    alpha: ad.Tensor    # (source_len,) or (rows, source_len); sums to 1


@dataclass
class SourceContext:
    """Everything decoding needs to know about one encoded source text.

    The union vocabulary is the output vocabulary followed by the
    extensions.  ``union_ids`` holds the union id of each source token, so
    `Model.predict_word` adds token i's copy mass into column
    ``union_ids[i]`` with one `autodiff.scatter`; repeated tokens share a
    column.
    """

    tokens: list
    enc: EncoderStates
    extensions: list            # source tokens outside the output vocabulary
    union_ids: np.ndarray       # (source_len,) int64
    vocab: object               # the output vocabulary

    @property
    def vocab_size(self):
        return len(self.vocab)

    @property
    def union_size(self):
        return self.vocab_size + len(self.extensions)

    def union_id(self, word):
        """Union-vocabulary id of a word; UNK when unreachable."""
        uid = self.vocab.id_or_none(word)
        if uid is not None:
            return uid
        if word in self.extensions:
            return self.vocab_size + self.extensions.index(word)
        return self.vocab.unk_id

    def union_token(self, uid):
        if uid < self.vocab_size:
            return self.vocab.token(uid)
        return self.extensions[uid - self.vocab_size]


@dataclass(frozen=True)
class DecoderState:
    """Immutable joint state: symbolic stack plus all recurrent states.

    ``tree_states`` has one (h, c) pair per stack element plus the zero
    base below R; ``stack_reps`` aligns with the symbolic stack.
    ``hist_inputs`` is the history LSTM's projected input of each op kind,
    made once per decode by `Model.initial_state` and carried unchanged.
    """

    symbolic: tr.StackState
    stack_reps: tuple          # composed vectors, one per stack element
    tree_states: tuple         # (h, c) pairs, len(stack) + 1 entries
    seq_state: tuple           # (h, c) of the summary LSTM
    hist_state: tuple          # (h, c) of the operation-history LSTM
    hist_inputs: ad.Tensor     # (3, 4 * hidden), OP_ORDER rows

    @property
    def tree_h(self) -> ad.Tensor:
        return self.tree_states[-1][0]

    @property
    def seq_h(self) -> ad.Tensor:
        return self.seq_state[0]

    @property
    def hist_h(self) -> ad.Tensor:
        return self.hist_state[0]

    @property
    def is_terminal(self):
        return self.symbolic.is_terminal


class Model:
    """Parameter container plus all forward computations."""

    def __init__(self, config: ModelConfig, input_vocab, output_vocab,
                 seed=13, dtype=np.float32):
        if len(input_vocab) != config.input_vocab_size:
            raise ModelError("input vocab size disagrees with config")
        if len(output_vocab) != config.output_vocab_size:
            raise ModelError("output vocab size disagrees with config")
        self.config = config
        self.input_vocab = input_vocab
        self.output_vocab = output_vocab
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        h, e = config.hidden_size, config.embed_size

        def weight(shape, name, scale=0.1):
            return ad.Parameter(ad.uniform_init(rng, shape, scale, dtype), name)

        def bias(size, name):
            return ad.Parameter(np.zeros(size, dtype=dtype), name)

        self.src_embed = weight((config.input_vocab_size, e), "src_embed")
        self.out_embed = weight((config.output_vocab_size, e), "out_embed")
        self.root_embed = weight((e,), "root_embed")
        self.op_embed = weight((len(OP_ORDER), e), "op_embed")

        self.encoder_cells = []
        for layer in range(config.encoder_layers):
            in_size = e if layer == 0 else 2 * h
            fwd = ad.LstmParams(in_size, h, f"encoder.{layer}.fwd", rng, dtype)
            bwd = ad.LstmParams(in_size, h, f"encoder.{layer}.bwd", rng, dtype)
            self.encoder_cells.append((fwd, bwd))

        self.tree_cell = ad.LstmParams(e, h, "tree_cell", rng, dtype)
        self.seq_cell = ad.LstmParams(e, h, "seq_cell", rng, dtype)
        self.hist_cell = ad.LstmParams(e, h, "hist_cell", rng, dtype)
        self.seq_init_h = bias(h, "seq_init_h")
        self.seq_init_c = bias(h, "seq_init_c")
        self.hist_init_h = bias(h, "hist_init_h")
        self.hist_init_c = bias(h, "hist_init_c")

        self.compose_w = weight((2 * e, e), "compose_w")
        self.compose_b = bias(e, "compose_b")

        self.attn_dec_w = weight((2 * h, h), "attn_dec_w")
        self.attn_enc_w = weight((2 * h, h), "attn_enc_w")
        self.attn_v = weight((h,), "attn_v")

        feat = 2 * h + 2 * h  # decoder states plus context vector
        self.op_hidden_w = weight((feat, h), "op_hidden_w")
        self.op_hidden_b = bias(h, "op_hidden_b")
        self.op_out_w = weight((h, len(OP_ORDER)), "op_out_w")

        self.word_hidden_w = weight((feat, h), "word_hidden_w")
        self.word_hidden_b = bias(h, "word_hidden_b")
        self.word_out_w = weight((h, config.output_vocab_size), "word_out_w")

        self.switch_w = weight((feat, 1), "switch_w")
        self.switch_b = bias(1, "switch_b")

    def parameters(self):
        params = [self.src_embed, self.out_embed, self.root_embed,
                  self.op_embed]
        for fwd, bwd in self.encoder_cells:
            params += fwd.parameters() + bwd.parameters()
        params += self.tree_cell.parameters()
        params += self.seq_cell.parameters()
        params += self.hist_cell.parameters()
        params += [self.seq_init_h, self.seq_init_c,
                   self.hist_init_h, self.hist_init_c,
                   self.compose_w, self.compose_b,
                   self.attn_dec_w, self.attn_enc_w, self.attn_v,
                   self.op_hidden_w, self.op_hidden_b, self.op_out_w,
                   self.word_hidden_w, self.word_hidden_b, self.word_out_w,
                   self.switch_w, self.switch_b]
        return params

    def _zeros(self, size):
        return ad.Tensor(np.zeros(size, dtype=self.dtype))

    # ------------------------------------------------------------------
    # Encoder
    # ------------------------------------------------------------------

    def encode(self, sources) -> list[EncoderStates]:
        """Run the bidirectional encoder over a batch of token lists in
        lockstep; unknown tokens map to UNK.  Returns one `EncoderStates`
        per source, in the order given.

        The tokens are laid out source by source, longest first (stable),
        each source one chain of an `autodiff.lstm_scan` forest: step s of
        every source is one level, and the sources running at step s are a
        prefix of those at step s - 1.  Each layer and direction is one
        `autodiff.lstm_input` and one scan; the backward direction scans
        its input rows reversed within each source and reverses its output
        back.  Raises `SourceError` naming the first source that is empty,
        over-long or a string.
        """
        if not sources:
            raise ModelError("no sources to encode")
        for i, tokens in enumerate(sources):
            if isinstance(tokens, str):
                raise SourceError(i, "a source is a list of tokens, "
                                     "not a string")
            if not tokens:
                raise SourceError(i, "cannot encode an empty source")
            if len(tokens) > self.config.max_source_len:
                raise SourceError(
                    i, f"source length {len(tokens)} exceeds configured "
                       f"maximum {self.config.max_source_len}")
        order = sorted(range(len(sources)), key=lambda i: -len(sources[i]))
        lengths = np.array([len(sources[i]) for i in order])
        starts = np.cumsum(lengths) - lengths
        # per token row: its source's first row, the row it continues (-1
        # for a first row) and the row at its mirror place in its source
        row = np.arange(lengths.sum())
        first = np.repeat(starts, lengths)
        chain = np.where(row == first, -1, row - 1)
        reverse = 2 * first + np.repeat(lengths, lengths) - 1 - row
        x = ad.rows(self.src_embed, [self.input_vocab.id(token)
                                     for i in order for token in sources[i]])
        zeros = self._zeros(self.config.hidden_size)
        for fwd, bwd in self.encoder_cells:
            forward = ad.lstm_scan(ad.lstm_input(x, fwd), chain, zeros,
                                   zeros, fwd)
            backward = ad.lstm_scan(ad.rows(ad.lstm_input(x, bwd), reverse),
                                    chain, zeros, zeros, bwd)
            x = ad.concat([forward, ad.rows(backward, reverse)], axis=1)
        keys = ad.matmul(x, self.attn_enc_w)
        spans = sorted(zip(order, starts.tolist(),
                           (starts + lengths).tolist()))
        return [EncoderStates(matrix=ad.narrow(x, 0, start, stop),
                              keys=ad.narrow(keys, 0, start, stop))
                for _, start, stop in spans]

    def prepare_sources(self, sources) -> list[SourceContext]:
        """Encode a batch of sources in lockstep and set up each one's copy
        bookkeeping."""
        return [self._source_context(tokens, enc)
                for tokens, enc in zip(sources, self.encode(sources))]

    def prepare_source(self, tokens) -> SourceContext:
        """Encode one source and set up its copy bookkeeping.  A source the
        encoder rejects raises `ModelError` without a batch position, which
        would read 0 whatever record the source came from."""
        try:
            return self.prepare_sources([tokens])[0]
        except SourceError as e:
            raise ModelError(e.reason) from e

    def _source_context(self, tokens, enc) -> SourceContext:
        vocab_size = self.config.output_vocab_size
        extensions = []
        union_ids = []
        for token in tokens:
            uid = self.output_vocab.id_or_none(token)
            if uid is None:
                if token not in extensions:
                    extensions.append(token)
                uid = vocab_size + extensions.index(token)
            union_ids.append(uid)
        return SourceContext(tokens=list(tokens), enc=enc,
                             extensions=extensions,
                             union_ids=np.array(union_ids, dtype=np.int64),
                             vocab=self.output_vocab)

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------

    def compose(self, g_head: ad.Tensor, g_dependent: ad.Tensor) -> ad.Tensor:
        """Merge a head and a dependent representation into one vector."""
        joined = ad.concat([g_head, g_dependent],
                           axis=g_head.data.ndim - 1)
        return ad.tanh(ad.add(ad.matmul(joined, self.compose_w),
                              self.compose_b))

    def word_embedding(self, word) -> ad.Tensor:
        """Embedding pushed for a generated word; UNK covers copied
        out-of-vocabulary source words."""
        return ad.row(self.out_embed, self.output_vocab.id(word))

    # ------------------------------------------------------------------
    # Incremental decoder state
    # ------------------------------------------------------------------

    def initial_state(self) -> DecoderState:
        """The state before the first op.  The history LSTM only ever
        reads one of the three op-kind embeddings, so their input
        projections are one (3, 4 * hidden) `lstm_input` here, from the
        current weights, which every `step` of this decode indexes."""
        h = self.config.hidden_size
        base = (self._zeros(h), self._zeros(h))
        return DecoderState(
            symbolic=tr.StackState(),
            stack_reps=(self.root_embed,),
            tree_states=(base, self._push(self.root_embed, base)),
            seq_state=(self.seq_init_h, self.seq_init_c),
            hist_state=(self.hist_init_h, self.hist_init_c),
            hist_inputs=ad.lstm_input(self.op_embed, self.hist_cell),
        )

    def _push(self, rep, below):
        """The tree LSTM's (h, c) after reading ``rep`` on top of ``below``."""
        return ad.lstm_cell(ad.lstm_input(rep, self.tree_cell), *below,
                            self.tree_cell)

    def step(self, state: DecoderState, op: tr.ParserOp) -> DecoderState:
        """Advance every component by one operation: GEN keeps the whole
        stack and pushes the word's embedding, a reduce keeps all but the
        top two entries and pushes their composition, and only GEN steps
        the summary LSTM."""
        symbolic = tr.apply_op(state.symbolic, op)
        hist = ad.lstm_cell(ad.row(state.hist_inputs, OP_INDEX[op.kind]),
                            *state.hist_state, self.hist_cell)
        keep, seq = len(state.stack_reps), state.seq_state
        if op.kind == tr.GEN:
            rep = self.word_embedding(op.word)
        else:
            keep -= 2
            top, second = state.stack_reps[-1], state.stack_reps[-2]
            rep = self.compose(top, second) if op.kind == tr.REDUCE_L \
                else self.compose(second, top)
        tree_states = state.tree_states[:keep + 1]
        tree_states += (self._push(rep, tree_states[-1]),)
        if op.kind == tr.GEN:
            seq = ad.lstm_cell(ad.lstm_input(rep, self.seq_cell), *seq,
                               self.seq_cell)
        return DecoderState(symbolic, state.stack_reps[:keep] + (rep,),
                            tree_states, seq, hist, state.hist_inputs)

    # ------------------------------------------------------------------
    # Prediction heads
    # ------------------------------------------------------------------

    def attend(self, tree_h, seq_h, enc: EncoderStates) -> ContextVector:
        """Score every source position against the decoder state.

        Takes one state as vectors or several as (rows, hidden) matrices;
        the context and alpha then carry the same leading row axis.  The
        additive scores ``tanh(keys + dec) @ attn_v`` are one
        `autodiff.attention_scores` node, which keeps no (rows,
        source_len, hidden) array for backward.
        """
        dec = ad.matmul(ad.concat([tree_h, seq_h], axis=-1), self.attn_dec_w)
        alpha = ad.softmax(ad.attention_scores(enc.keys, dec, self.attn_v))
        context = ad.matmul(alpha, enc.matrix)
        return ContextVector(context=context, alpha=alpha)

    def op_scores(self, tree_h, hist_h, context) -> ad.Tensor:
        """Unnormalized 3-way operation scores, OP_ORDER layout; vectors
        or rows, like `attend`."""
        feat = ad.concat([tree_h, hist_h, context], axis=-1)
        hidden = ad.tanh(ad.add(ad.matmul(feat, self.op_hidden_w),
                                self.op_hidden_b))
        return ad.matmul(hidden, self.op_out_w)

    def predict_word(self, seq_h, tree_h, ctx: ContextVector,
                     src: SourceContext) -> tuple[ad.Tensor, ad.Tensor]:
        """Word distribution over output vocabulary plus source extensions.

        Mixes vocabulary generation with copying: the switch s gives the
        generation share, and the attention mass on the source tokens the
        copy share.  One `autodiff.scatter` widens the generation term
        ``s * softmax`` to the union vocabulary and adds each token's
        ``(1 - s) * alpha`` into the column of its union id
        (``src.union_ids``); its backward gathers those columns.  Vectors
        or rows, like `attend`.  Returns (distribution, switch).
        """
        feat = ad.concat([seq_h, tree_h, ctx.context], axis=-1)
        switch = ad.sigmoid(ad.add(ad.matmul(feat, self.switch_w),
                                   self.switch_b))
        hidden = ad.tanh(ad.add(ad.matmul(feat, self.word_hidden_w),
                                self.word_hidden_b))
        vocab_dist = ad.softmax(ad.matmul(hidden, self.word_out_w))
        one = ad.constant(1.0, dtype=self.dtype)
        dist = ad.scatter(ad.mul(vocab_dist, switch), src.union_ids,
                          ad.mul(ctx.alpha, ad.sub(one, switch)),
                          src.union_size)
        return dist, switch

    def score_rows(self, tree_h, seq_h, hist_h, src: SourceContext,
                   word_rows):
        """Attention and both heads for several decoder states at once.

        ``tree_h``, ``seq_h`` and ``hist_h`` are (rows, hidden) matrices,
        one row per state.  Every row goes through `attend` and
        `op_scores`; `predict_word` runs on the rows listed in
        ``word_rows`` only.  Returns (op logits (rows, 3) in OP_ORDER, word
        distribution (len(word_rows), union_size) or None when no row is
        listed).
        """
        ctx = self.attend(tree_h, seq_h, src.enc)
        logits = self.op_scores(tree_h, hist_h, ctx.context)
        if not word_rows:
            return logits, None
        if len(word_rows) < tree_h.shape[0]:
            tree_h, seq_h, context, alpha = (ad.rows(x, word_rows) for x in (
                tree_h, seq_h, ctx.context, ctx.alpha))
            ctx = ContextVector(context=context, alpha=alpha)
        word_dist, _ = self.predict_word(seq_h, tree_h, ctx, src)
        return logits, word_dist

    def joint_step_distribution(self, states, src: SourceContext,
                                max_words: int):
        """Masked joint distributions of several states, one row each.

        Invalid ops get a -inf logit (in float64) before the softmax.
        Returns plain float64 arrays: ``op_probs`` (rows, 3) over OP_ORDER,
        where the GEN entry is the total generation mass, and ``word_probs``
        (rows, union_size), each row summing to its GEN mass (zero where
        GEN is masked); it has no columns when no row may generate.
        """
        kinds = [tr.valid_ops(state.symbolic, max_words) for state in states]
        if not all(kinds):
            raise DecodingError("terminal state has no next-step "
                                "distribution")
        gen_rows = list(range(len(states))) \
            if any(tr.GEN in k for k in kinds) else []
        logits, word_dist = self.score_rows(
            ad.stack_rows([state.tree_h for state in states]),
            ad.stack_rows([state.seq_h for state in states]),
            ad.stack_rows([state.hist_h for state in states]), src, gen_rows)
        mask = np.array([[kind in k for kind in OP_ORDER] for k in kinds])
        logits = np.where(mask, logits.data.astype(np.float64), -np.inf)
        op_probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        op_probs /= op_probs.sum(axis=-1, keepdims=True)
        if word_dist is None:
            return op_probs, np.zeros((len(states), 0))
        gen = OP_INDEX[tr.GEN]
        return op_probs, word_dist.data.astype(np.float64) \
            * op_probs[:, gen:gen + 1]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def metadata(self):
        return {
            "config": self.config.to_dict(),
            "input_vocab": self.input_vocab.tokens,
            "output_vocab": self.output_vocab.tokens,
            "input_vocab_hash": self.input_vocab.digest(),
            "output_vocab_hash": self.output_vocab.digest(),
        }

    def save(self, path):
        ad.save_checkpoint(path, self.parameters(), metadata=self.metadata())

    @classmethod
    def load(cls, path):
        from .corpus import CorpusError, Vocabulary

        arrays, meta = ad.load_checkpoint(path)
        if not arrays:
            raise ModelError(f"{path}: checkpoint holds no parameters")
        dtype = arrays[next(iter(arrays))].dtype
        try:
            vocabs = []
            for side in ("input", "output"):
                vocab = Vocabulary(meta[f"{side}_vocab"])
                if vocab.digest() != meta[f"{side}_vocab_hash"]:
                    raise ModelError(f"{side} vocabulary hash mismatch")
                vocabs.append(vocab)
            config = ModelConfig(**meta["config"])
            _check_stored_sizes(config, arrays)
            model = cls(config, *vocabs, dtype=dtype)
        except (KeyError, TypeError, CorpusError, ModelError) as e:
            raise ModelError(f"{path}: bad checkpoint metadata: "
                             f"{type(e).__name__}: {e}") from e
        for p in model.parameters():
            if p.name not in arrays:
                raise ModelError(f"{path}: missing parameter {p.name}")
            if arrays[p.name].shape != p.data.shape:
                raise ModelError(
                    f"{path}: shape mismatch for {p.name}: "
                    f"{arrays[p.name].shape} vs {p.data.shape}")
            p.data = arrays[p.name].astype(dtype, copy=False)
        return model


def _check_stored_sizes(config: ModelConfig, arrays):
    """The sizes that set how much a model allocates must match the stored
    arrays before one is built, so corrupt metadata cannot claim a huge
    model."""
    for field, name in (("embed_size", "root_embed"),
                        ("hidden_size", "seq_init_h")):
        size = getattr(config, field)
        shape = arrays[name].shape if name in arrays else None
        if shape != (size,):
            raise ModelError(f"{field} {size!r} does not match the stored "
                             f"{name} of shape {shape}")
    layers = sum(name.startswith("encoder.") and name.endswith(".fwd.w")
                 for name in arrays)
    if config.encoder_layers != layers:
        raise ModelError(f"encoder_layers {config.encoder_layers!r} does not "
                         f"match the {layers} stored encoder layers")
