"""Dense-tensor reverse-mode automatic differentiation on numpy arrays.

Operations record onto the active `Tape` (a Wengert list); with no tape
active they run forward-only, which is how decoding avoids graph overhead.
The primitive set is closed and small: matmul, add/sub/mul (with numpy
broadcasting, un-broadcast on the way back), concat/narrow/reshape,
row/rows/stack_rows gathers, tanh, sigmoid, softmax, log_softmax, log,
clip, total, pick, and three for LSTMs.  `lstm_input` is an LSTM's input
projection ``zx = x @ w[:E] + b`` as one node, over all the rows a
recurrence reads, so it is one GEMM hoisted out of the recurrence.  The
two recurrence primitives take that ``zx`` and run only the recurrent
product ``h @ w[E:]``: `lstm_cell` is one LSTM step, whose new cell and
hidden states are one node each, and `lstm_scan` a whole recurrence over
rows whose inputs are known up front.  Every primitive checks its output
for NaN/Inf and raises `NonFiniteError` on the first occurrence.

Only Parameters and taped nodes take gradients; constants (tensors made
off the tape, such as copy matrices, zero states and lifted scalars) get
none, and no backward product is computed for them.  The weight gradient
of ``x @ p`` for a Parameter ``p`` is not computed per product: its (x, g)
rows are kept on the tape, and `Tape.backward` flushes each such
parameter once, as one GEMM, after every node has run.  The LSTM
primitives hand their weight gradients to the same flush, each into its
own block of rows of ``w``: `lstm_input` into the input rows ``[:E]``,
`lstm_cell` and `lstm_scan` into the recurrent rows ``[E:]``.

A checkpoint is rejected unless its records end exactly at the checksum,
no parameter name repeats, and each record has at most 32 dimensions, no
more values than the bytes left hold, and only finite values.

Checkpoint container byte layout (version ``TSCKPT01``, all integers
little-endian, arrays C-order):

    8 bytes   magic b"TSCKPT01"
    u32       metadata length M
    M bytes   metadata JSON, UTF-8
    u32       parameter count P
    P records:
        u16       name length L
        L bytes   name, UTF-8
        u8        dtype code (4 = float32, 8 = float64)
        u8        ndim D
        D * u32   dimensions
        bytes     raw values, dtype-sized, little-endian
    u32       CRC-32 (zlib) of everything above
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np


class AutodiffError(Exception):
    pass


class ShapeError(AutodiffError):
    pass


class NonFiniteError(AutodiffError):
    pass


class CheckpointError(AutodiffError):
    pass


_ACTIVE_TAPE = None


class Tensor:
    """A dense array plus the bookkeeping to participate in a tape."""

    __slots__ = ("data", "grad", "_backward")

    def __init__(self, data, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None
                               else getattr(data, "dtype", np.float32))
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.grad = None
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def accumulate(self, g):
        if self.grad is None:
            # a copy: `add` hands the same g to both of its operands
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter(Tensor):
    """A named, trainable tensor; gradients persist across tapes."""

    __slots__ = ("name",)

    def __init__(self, data, name, dtype=None):
        super().__init__(data, dtype=dtype)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class Tape:
    """Execution-ordered record of operations; context manager activates it."""

    def __init__(self):
        self.nodes = []
        # (Parameter, first row) -> ([x rows], [g rows]) of x @ p[first:]
        self._deferred = {}

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise AutodiffError("a tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _defer(self, param, x, g, start=0):
        """Keep the (x, g) rows of ``x @ param[start:start + k]``, k the
        width of x, for the flush."""
        xs, gs = self._deferred.setdefault((param, start), ([], []))
        xs.append(x)
        gs.append(g)

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(x) into .grad of every Parameter and taped
        node the tape reaches; constants get no gradient.

        Each taped node's own .grad is released once its backward has run.
        The weight gradient of ``x @ p`` for a Parameter ``p`` is deferred:
        the (x, g) rows of every such product are kept, and once every node
        has run each parameter gets one GEMM per block of rows it was used
        in, ``p.grad[start:start + k] += X.T @ G``.  The kept rows are
        released as each block is flushed, or on error.
        """
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        try:
            loss.accumulate(np.ones_like(loss.data))
            for node in reversed(self.nodes):
                if node.grad is None or node._backward is None:
                    continue
                # every consumer has already run, so the buffer can go now
                g, node.grad = node.grad, None
                node._backward(g)
            while self._deferred:
                (param, start), (xs, gs) = self._deferred.popitem()
                block = param.grad[start:start + xs[0].shape[1]]
                block += (np.concatenate(xs).T
                          @ np.concatenate(gs)).reshape(block.shape)
        finally:
            self._deferred.clear()
            self.nodes = []


def _make(data, backward, op):
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite output of {op}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward = None
    if _ACTIVE_TAPE is not None:
        out._backward = backward
        _ACTIVE_TAPE.nodes.append(out)
    return out


def _takes_grad(t: Tensor) -> bool:
    """Parameters and taped nodes take gradients; constants (tensors made
    off the tape, lifted scalars) take none, so no product is computed
    for them."""
    return t._backward is not None or isinstance(t, Parameter)


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g, shape):
    """Sum-reduce a gradient back to the pre-broadcast shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")

    def backward(g):
        if _takes_grad(a):
            a.accumulate(_unbroadcast(g, a.shape))
        if _takes_grad(b):
            b.accumulate(_unbroadcast(g, b.shape))
    return _make(data, backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}")

    def backward(g):
        if _takes_grad(a):
            a.accumulate(_unbroadcast(g, a.shape))
        if _takes_grad(b):
            b.accumulate(-_unbroadcast(g, b.shape))
    return _make(data, backward, "sub")


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if _takes_grad(a):
            a.accumulate(-g)
    return _make(-a.data, backward, "neg")


def mul(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")

    def backward(g):
        if _takes_grad(a):
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if _takes_grad(b):
            b.accumulate(_unbroadcast(g * a.data, b.shape))
    return _make(data, backward, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Vector or matrix products; with a Parameter on the right, the weight
    gradient is deferred to one GEMM per parameter in `Tape.backward`."""
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D/2-D only: {a.shape} x {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    tape = _ACTIVE_TAPE

    def backward(g):
        # vectors and rows alike as matrices: x (rows, k) @ w (k, n) = g
        w = b.data.reshape(b.shape[0], -1)
        x = a.data.reshape(-1, w.shape[0])
        g = g.reshape(x.shape[0], w.shape[1])
        if _takes_grad(a):
            a.accumulate((g @ w.T).reshape(a.shape))
        if isinstance(b, Parameter):
            tape._defer(b, x, g)
        elif _takes_grad(b):
            b.accumulate((x.T @ g).reshape(b.shape))
    return _make(data, backward, "matmul")


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            "concat: " + " | ".join(str(t.shape) for t in tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        start = 0
        for t, size in zip(tensors, sizes):
            if _takes_grad(t):
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, start + size)
                t.accumulate(g[tuple(index)])
            start += size
    return _make(data, backward, "concat")


def _grad_buffer(a: Tensor):
    if a.grad is None:
        a.grad = np.zeros_like(a.data)
    return a.grad


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    data = a.data[index].copy()

    def backward(g):
        if _takes_grad(a):
            _grad_buffer(a)[index] += g
    return _make(data, backward, "narrow")


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    if data.shape == a.shape:   # no node, so no gradient buffer to hold
        return a

    def backward(g):
        if _takes_grad(a):
            a.accumulate(g.reshape(a.shape))
    return _make(data, backward, "reshape")


def rows(table: Tensor, indices) -> Tensor:
    """Embedding lookup: gather rows of a 2-D table."""
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]

    def backward(g):
        if not _takes_grad(table):
            return
        grad = _grad_buffer(table)
        if len(set(idx.tolist())) == idx.size and not (idx < 0).any():
            grad[idx] += g          # distinct rows: each is added once
        else:
            np.add.at(grad, idx, g)
    return _make(data, backward, "rows")


def row(a: Tensor, i: int) -> Tensor:
    data = a.data[i].copy()

    def backward(g):
        if _takes_grad(a):
            _grad_buffer(a)[i] += g
    return _make(data, backward, "row")


def stack_rows(vectors) -> Tensor:
    """Stack equal-length vectors into a matrix, one per row."""
    vectors = list(vectors)
    try:
        data = np.stack([v.data for v in vectors], axis=0)
    except ValueError:
        raise ShapeError(
            "stack_rows: " + " | ".join(str(v.shape) for v in vectors))

    def backward(g):
        for r, v in enumerate(vectors):
            if _takes_grad(v):
                v.accumulate(g[r])
    return _make(data, backward, "stack_rows")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        if _takes_grad(a):
            a.accumulate(g * (1.0 - data * data))
    return _make(data, backward, "tanh")


def _sigmoid_np(a):
    # exp(-|a|) never overflows: 1 / (1 + e) where a >= 0, e / (1 + e) below
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid_np(a.data)

    def backward(g):
        if _takes_grad(a):
            a.accumulate(g * data * (1.0 - data))
    return _make(data, backward, "sigmoid")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if _takes_grad(a):
            inner = (g * data).sum(axis=axis, keepdims=True)
            a.accumulate(data * (g - inner))
    return _make(data, backward, "softmax")


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def backward(g):
        if _takes_grad(a):
            soft = np.exp(data)
            a.accumulate(g - soft * g.sum(axis=axis, keepdims=True))
    return _make(data, backward, "log_softmax")


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def backward(g):
        if _takes_grad(a):
            a.accumulate(g / a.data)
    return _make(data, backward, "log")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through inside [lo, hi] inclusive."""
    data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        if _takes_grad(a):
            a.accumulate(g * mask)
    return _make(data, backward, "clip")


def total(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g):
        if not _takes_grad(a):
            return
        if axis is None:
            a.accumulate(np.broadcast_to(g, a.shape).copy())
        else:
            a.accumulate(np.broadcast_to(
                np.expand_dims(g, axis), a.shape).copy())
    return _make(data, backward, "total")


def pick(a: Tensor, index) -> Tensor:
    """One coordinate of a vector as a scalar tensor; or, given one index
    per row of a matrix, one coordinate per row as a vector."""
    if a.data.ndim == 2 and len(index) == a.shape[0]:
        index = (np.arange(a.shape[0]), np.asarray(index, dtype=np.int64))
    elif a.data.ndim != 1:
        raise ShapeError(f"pick expects a vector, or a matrix and one index "
                         f"per row, got {a.shape}")
    data = a.data[index].copy()

    def backward(g):
        if _takes_grad(a):
            _grad_buffer(a)[index] += g
    return _make(data, backward, "pick")


def constant(value, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(value, dtype=dtype))


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

class LstmParams:
    """Weights of one LSTM cell: z = [x || h] @ w + b, gate order i,f,g,o.

    The rows ``w[:E]`` (E the input size) take the input, the rows
    ``w[E:]`` the previous hidden state; `lstm_input` applies the first
    block and the bias, `lstm_cell` and `lstm_scan` the second.
    """

    def __init__(self, input_size, hidden_size, name, rng, dtype=np.float32,
                 scale=0.1):
        self.hidden_size = hidden_size
        self.w = Parameter(
            uniform_init(rng, (input_size + hidden_size, 4 * hidden_size),
                         scale, dtype), f"{name}.w")
        self.b = Parameter(np.zeros(4 * hidden_size, dtype=dtype), f"{name}.b")

    @property
    def input_size(self):
        return self.w.shape[0] - self.hidden_size

    def parameters(self):
        return [self.w, self.b]


def _lstm_gates(z, n):
    """The activations i, f, g, o of pre-activations z (..., 4n).  One
    sigmoid call over all four quarters is cheaper than two around g,
    whose quarter then takes its tanh."""
    s = _sigmoid_np(z)
    s[..., 2 * n:3 * n] = np.tanh(z[..., 2 * n:3 * n])
    return s


def _lstm_slopes(s, c_prev, tc, n):
    """Per row, d(pre-activation)/dc of gates i, f, g and
    d(pre-activation)/dh of gate o, so dz = [dc | dc | dc | dh] * slopes;
    ``tc`` is tanh of the new cell state."""
    i, f, g, o = (s[..., k * n:(k + 1) * n] for k in range(4))
    return np.concatenate([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                           i * (1.0 - g * g), tc * o * (1.0 - o)], axis=-1)


def lstm_input(x: Tensor, params: LstmParams) -> Tensor:
    """The input projection ``zx = x @ w[:E] + b`` of an LSTM, one node for
    a vector or (rows, E).  Computed once over every row a recurrence
    reads, it takes the input's share of the pre-activations out of the
    recurrence, which `lstm_cell` and `lstm_scan` then run on ``zx``.  The
    backward defers its weight gradient into the rows ``[:E]`` of ``w``.
    """
    e = params.input_size
    if x.data.ndim not in (1, 2) or x.shape[-1] != e:
        raise ShapeError(f"lstm_input: {x.shape} for input size {e}")
    w_x = params.w.data[:e]
    data = x.data @ w_x + params.b.data
    tape = _ACTIVE_TAPE

    def backward(g):
        if _takes_grad(x):
            x.accumulate(g @ w_x.T)
        params.b.accumulate(_unbroadcast(g, params.b.shape))
        tape._defer(params.w, x.data.reshape(-1, e),
                    g.reshape(-1, g.shape[-1]))
    return _make(data, backward, "lstm_input")


def lstm_cell(zx: Tensor, h: Tensor, c: Tensor, params: LstmParams):
    """One step of a standard LSTM on the projected input ``zx`` of
    `lstm_input`; works on vectors or (batch, dim) rows.

    ``z = zx + h @ w[E:]``; the gates and the state update are two nodes,
    the new cell state and then the new hidden state.  The hidden state's
    backward hands its gradient to the cell state's, which passes dz to
    ``zx`` and ``h`` and defers the weight gradient into the rows
    ``[E:]`` of ``w``.
    """
    n, e = params.hidden_size, params.input_size
    if zx.shape[-1] != 4 * n or h.shape != zx.shape[:-1] + (n,):
        raise ShapeError(f"lstm_cell: input {zx.shape} and hidden state "
                         f"{h.shape} for hidden size {n}")
    w_h = params.w.data[e:]
    z = h.data @ w_h
    z += zx.data
    s = _lstm_gates(z, n)
    f, g, o = s[..., n:2 * n], s[..., 2 * n:3 * n], s[..., 3 * n:]
    c_data = f * c.data + s[..., :n] * g
    tc = np.tanh(c_data)
    tape = _ACTIVE_TAPE
    dh = []     # the new hidden state's gradient, once its backward ran

    def backward_c(dc):
        dh_o = dh[0] if dh else np.zeros_like(dc)
        dz = np.concatenate([dc, dc, dc, dh_o], axis=-1) \
            * _lstm_slopes(s, c.data, tc, n)
        if _takes_grad(zx):
            zx.accumulate(dz)
        if _takes_grad(h):
            h.accumulate(dz @ w_h.T)
        tape._defer(params.w, h.data.reshape(-1, n), dz.reshape(-1, 4 * n),
                    start=e)
        if _takes_grad(c):
            c.accumulate(_unbroadcast(dc * f, c.shape))

    def backward_h(g_h):
        dh.append(g_h)
        c_new.accumulate(g_h * o * (1.0 - tc * tc))

    c_new = _make(c_data, backward_c, "lstm_cell")
    h_new = _make(o * tc, backward_h, "lstm_cell")
    return h_new, c_new


def lstm_scan(zx: Tensor, parents, h0: Tensor, c0: Tensor,
              params: LstmParams) -> Tensor:
    """`lstm_cell` over every row of ``zx`` (T, 4 * hidden), the projected
    input of `lstm_input`, as one primitive.

    Row t continues the state of row ``parents[t]``, which must lie below
    t, or starts from the vectors (h0, c0) where ``parents[t] == -1``.  A
    chain gives a sequence LSTM; a stack pointer gives the stack-LSTM.
    Returns the (T, hidden) hidden rows.  Only the recurrent product runs
    per row.  The backward walks the rows in reverse and hands the weight
    gradient to the tape as ``h_prev`` rows for the rows ``[E:]`` of
    ``w``, so it joins the parameter's flush.
    """
    n, e = params.hidden_size, params.input_size
    w_h = params.w.data[e:]
    if zx.data.ndim != 2 or zx.shape[1] != 4 * n:
        raise ShapeError(f"lstm_scan: rows {zx.shape} for hidden size {n}")
    if h0.shape != (n,) or c0.shape != (n,):
        raise ShapeError(f"lstm_scan: initial state {h0.shape}, {c0.shape} "
                         f"for hidden size {n}")
    steps = zx.shape[0]
    parents = np.asarray(parents, dtype=np.int64)
    if parents.shape != (steps,) or np.any(parents < -1) \
            or np.any(parents >= np.arange(steps)):
        raise ShapeError(f"lstm_scan: parents must hold one index in "
                         f"-1..t-1 per row t of {steps}")
    hs = np.empty((steps, n), dtype=zx.dtype)
    cs = np.empty((steps, n), dtype=zx.dtype)
    tape = _ACTIVE_TAPE
    # the gate values i, f, g, o of every row, kept for the backward
    gates = np.empty_like(zx.data) if tape is not None else None
    for t, p in enumerate(parents.tolist()):
        h_prev, c_prev = (h0.data, c0.data) if p < 0 else (hs[p], cs[p])
        z = h_prev @ w_h
        z += zx.data[t]
        s = _lstm_gates(z, n)
        c = cs[t]
        np.multiply(s[n:2 * n], c_prev, out=c)
        c += s[:n] * s[2 * n:3 * n]
        np.multiply(s[3 * n:], np.tanh(c), out=hs[t])
        if gates is not None:
            gates[t] = s

    def backward(g):
        f, o = gates[:, n:2 * n], gates[:, 3 * n:]
        roots = parents < 0
        h_prev = np.where(roots[:, None], h0.data, hs[parents])
        c_prev = np.where(roots[:, None], c0.data, cs[parents])
        tc = np.tanh(cs)
        dc_dh = o * (1.0 - tc * tc)
        slope = _lstm_slopes(gates, c_prev, tc, n)
        dh = np.array(g, dtype=hs.dtype)
        dc = np.zeros_like(cs)
        dz = np.empty_like(gates)
        for t, p in reversed(list(enumerate(parents.tolist()))):
            dh_t, dc_t = dh[t], dc[t]
            dc_t += dh_t * dc_dh[t]
            np.multiply(np.concatenate((dc_t, dc_t, dc_t, dh_t)), slope[t],
                        out=dz[t])
            if p >= 0:
                dh[p] += w_h @ dz[t]
                dc[p] += dc_t * f[t]
        if _takes_grad(zx):
            zx.accumulate(dz)
        if _takes_grad(h0):
            h0.accumulate(w_h @ dz[roots].sum(axis=0))
        if _takes_grad(c0):
            c0.accumulate((dc[roots] * f[roots]).sum(axis=0))
        tape._defer(params.w, h_prev, dz, start=e)
    return _make(hs, backward, "lstm_scan")


def uniform_init(rng, shape, scale=0.1, dtype=np.float32):
    """Seeded uniform weights in [-scale, scale]; biases stay zero elsewhere."""
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


def zero_grads(params):
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, params, samples_per_param=8, step=1e-5):
    """Max relative error of analytic vs central-difference gradients.

    ``f`` must be a deterministic nullary callable returning a scalar
    Tensor computed from ``params``.  Use float64 parameters; float32
    round-off swamps the comparison.  Per parameter, the coordinates with
    the largest analytic magnitude are sampled: central differences at
    this step size cannot resolve gradients below the round-off of the
    loss itself, so near-zero coordinates carry no signal.
    """
    zero_grads(params)
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    worst = 0.0
    for p in params:
        k = min(samples_per_param, p.data.size)
        magnitudes = np.abs(analytic[p.name].reshape(-1))
        coords = np.argsort(-magnitudes, kind="stable")[:k]
        for idx in coords:
            multi = np.unravel_index(idx, p.data.shape)
            keep = p.data[multi]
            p.data[multi] = keep + step
            up = f().item()
            p.data[multi] = keep - step
            down = f().item()
            p.data[multi] = keep
            numeric = (up - down) / (2.0 * step)
            a = analytic[p.name].reshape(-1)[idx]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = b"TSCKPT01"
_MAX_NDIM = 32
_DTYPE_CODES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def save_checkpoint(path, params, metadata=None):
    """Write named parameter arrays plus a metadata record; see module doc."""
    params = list(params)
    named = {p.name: p.data for p in params}
    if len(named) != len(params):
        raise CheckpointError("duplicate parameter names")
    meta = json.dumps(metadata or {}).encode("utf-8")
    chunks = [_MAGIC, struct.pack("<I", len(meta)), meta,
              struct.pack("<I", len(named))]
    for name, array in named.items():
        encoded = name.encode("utf-8")
        code = 8 if array.dtype == np.float64 else 4
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", code, array.ndim))
        chunks.append(struct.pack(f"<{array.ndim}I", *array.shape))
        chunks.append(np.ascontiguousarray(
            array, dtype=_DTYPE_CODES[code]).tobytes())
    body = b"".join(chunks)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint; returns (name -> array dict, metadata dict)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 8 or blob[:len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    body, footer = blob[:-4], blob[-4:]
    if struct.unpack("<I", footer)[0] != (zlib.crc32(body) & 0xFFFFFFFF):
        raise CheckpointError(f"{path}: checksum mismatch")
    view = memoryview(body)[len(_MAGIC):]

    def take(n):
        nonlocal view
        if len(view) < n:
            raise CheckpointError(f"{path}: truncated")
        chunk, view = view[:n], view[n:]
        return chunk

    def text(n):
        try:
            return bytes(take(n)).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: text is not UTF-8: {e}") from e

    meta_len = struct.unpack("<I", take(4))[0]
    try:
        metadata = json.loads(text(meta_len))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: metadata is not JSON: {e}") from e
    if not isinstance(metadata, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    count = struct.unpack("<I", take(4))[0]
    arrays = {}
    for _ in range(count):
        name_len = struct.unpack("<H", take(2))[0]
        name = text(name_len)
        if name in arrays:
            raise CheckpointError(f"{path}: parameter {name!r} repeated")
        code, ndim = struct.unpack("<BB", take(2))
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{path}: unknown dtype code {code}")
        if ndim > _MAX_NDIM:
            raise CheckpointError(f"{path}: parameter {name!r} has {ndim} "
                                  f"dimensions, at most {_MAX_NDIM} allowed")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        dtype = _DTYPE_CODES[code]
        # Python ints: a product of u32 dimensions must not wrap around
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > len(view):
            raise CheckpointError(
                f"{path}: parameter {name!r} of shape {shape} needs {nbytes} "
                f"bytes, {len(view)} left")
        arrays[name] = np.frombuffer(
            take(nbytes), dtype=dtype).reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(
                f"{path}: parameter {name!r} holds non-finite values")
    if len(view):
        raise CheckpointError(
            f"{path}: {len(view)} trailing bytes after the last record")
    return arrays, metadata
