"""Dense numeric kernels shared by every learned module.

Everything is float64 numpy. Parameters of a model are kept in a plain
``dict[str, np.ndarray]`` (a "param set"); gradients use the same keys.
The linker and the decoder train in one loop, ``train_minibatches``, on
weights and gradients packed by ``pack_params`` into one vector each,
which ``Adam`` steps whole. Each forward kernel has a hand-written
backward, checked by central differences in the tests. The configs of
``corpus``, ``linker`` and ``decoder`` are frozen dataclasses that check
their field types and ranges with ``check_config`` when they are made,
and ``_json_value`` and ``_read_object`` check the JSON read from files.

The module needs numpy alone. ``sigmoid`` is numpy's ``exp`` rather than
``scipy.special.expit``, whose import took longer than the rest of
``charcap``'s, so ``corpus``, ``linker`` and ``decoder`` load no scipy.
"""

import json
import math
import operator
import reprlib
import zlib
from dataclasses import fields
from functools import reduce

import numpy as np

FLOAT = np.float64
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def masked_softmax(logits, valid):
    """Softmax of each row (the last axis) over its ``valid`` entries;
    invalid entries get exactly 0, a row without a valid entry is all 0
    (with no warning), and a row with one is bitwise
    ``softmax_cross_entropy``'s ``probs``. The linker's and the decoder's
    attention."""
    z = np.where(valid, logits, -np.inf)
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - np.where(zmax > -np.inf, zmax, 0.0))
    total = e.sum(axis=-1, keepdims=True)
    return e / np.where(total > 0.0, total, 1.0)


def pad_rows(arrays):
    """Stack B arrays of ``(n_b, ...)`` rows into ``(B, max n_b, ...)``,
    zero-padded (False for bool); ``mask[b, i]`` marks array b's own rows.
    Returns ``(padded, mask)``."""
    n = np.array([len(a) for a in arrays])
    mask = np.arange(n.max()) < n[:, None]
    rows = np.concatenate(arrays)
    padded = np.zeros(mask.shape + rows.shape[1:], dtype=rows.dtype)
    padded[mask] = rows
    return padded, mask


def softmax_cross_entropy(logits, targets, valid=None):
    """Row-wise softmax of ``(B, K)`` logits and each row's cross-entropy.

    Returns ``(probs, losses)``: ``probs`` is the softmax of every row over
    its ``valid`` entries (all when None; invalid entries get exactly 0),
    ``losses[b] = -log probs[b, targets[b]]`` by log-sum-exp, finite where
    the probability underflows. Every row needs a valid entry.
    """
    z = np.asarray(logits, dtype=FLOAT)
    if valid is not None:
        z = np.where(valid, z, -np.inf)
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    total = e.sum(axis=-1, keepdims=True)
    zt = np.take_along_axis(z, np.asarray(targets)[:, None], axis=-1)
    return e / total, (np.log(total) - (zt - zmax))[:, 0]


def sigmoid(x):
    """The logistic function ``1 / (1 + exp(-x))`` of an array, as a new
    float64 array. Finite in [0, 1] for every finite x, without a warning:
    below about -709 ``exp`` overflows to inf and the result is 0."""
    with np.errstate(over="ignore", under="ignore"):
        s = np.negative(x, dtype=FLOAT)
        np.exp(s, out=s)
        s += 1.0
        return np.divide(1.0, s, out=s)


def _is_number(v, kind=(int, float)):
    return isinstance(v, kind) and not isinstance(v, bool)


def _is_finite(v):
    """A JSON number (not a boolean) that is a finite float; the check of
    outside input (a corpus file) in ``corpus``."""
    try:
        return _is_number(v) and math.isfinite(v)
    except OverflowError:  # an integer past the float range
        return False


def rng_stream(seed, label=""):
    """Seeded generator; equal (seed, label) gives a bit-identical stream.

    ``label`` names a substream so one run-level seed can feed many
    independent consumers deterministically. ``seed`` is a Python or numpy
    integer, taken modulo 2**64; anything else (a float, a string, a bool)
    raises ValueError naming it, since ``int()`` would alias 1.5 to 1.
    """
    try:
        if isinstance(seed, bool):
            raise TypeError
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"rng_stream: seed must be an integer, got {seed!r}") from None
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, key]))


def glorot_uniform(rng, rows, cols=None):
    """Uniform init in [-r, r] with r = sqrt(6 / (fan_in + fan_out))."""
    if cols is None:
        r = np.sqrt(6.0 / (rows + 1))
        return rng.uniform(-r, r, size=rows).astype(FLOAT)
    r = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-r, r, size=(rows, cols)).astype(FLOAT)


def zeros_like_params(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def pack_params(params):
    """Copy a param set into one contiguous float64 vector, its arrays end
    to end in dict order. Returns ``(flat, views)``, ``views`` a param set
    of the same keys and shapes whose arrays are views into ``flat``."""
    flat = np.concatenate([np.ravel(v) for v in params.values()], dtype=FLOAT)
    parts = np.split(flat, np.cumsum([v.size for v in params.values()])[:-1])
    return flat, {k: a.reshape(v.shape) for (k, v), a in zip(params.items(), parts)}


# ---------------------------------------------------------------------------
# LSTM primitives with manual backward
# ---------------------------------------------------------------------------

def lstm_init(rng, input_dim, hidden_dim):
    """Gate weights stacked [input, forget, output, candidate] row blocks."""
    W = glorot_uniform(rng, 4 * hidden_dim, input_dim + hidden_dim)
    b = np.zeros(4 * hidden_dim, dtype=FLOAT)
    # small positive forget bias keeps early memories alive
    b[hidden_dim:2 * hidden_dim] = 1.0
    return W, b


def lstm_step_forward(W, b, x, h_prev, c_prev):
    """One LSTM step; returns (h, c, cache) with cache for the backward.

    ``x``, ``h_prev`` and ``c_prev`` are one step's vectors, or rows
    ``(B, ·)`` of B independent sequences advanced together; the gates are
    sliced on the last axis either way, and a 1-D step is bitwise the
    ``W @ xh`` product.

    ``W`` and ``b`` need not be a whole LSTM's weights. A caller whose
    input is partly known before the recurrence passes as ``W`` the
    recurrent block (the columns of the inputs formed at each step and of
    ``h``) and as ``b`` the step's input contribution: the bias plus the
    other columns times their inputs. ``x`` then holds only the per-step
    inputs, and the backward's ``dx`` covers only those.
    """
    H = h_prev.shape[-1]
    xh = np.concatenate([x, h_prev], axis=-1)
    a = xh @ W.T + b
    s = sigmoid(a[..., :3 * H])
    i, f, o = s[..., :H], s[..., H:2 * H], s[..., 2 * H:]
    g = np.tanh(a[..., 3 * H:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = (W, xh, c_prev, i, f, o, g, tc, x.shape[-1])
    return h, c, cache


def lstm_step_backward(cache, dh, dc):
    """Backward of one LSTM step (1-D or rows, as its forward ran).

    ``dh`` and ``dc`` are the gradients flowing into this step's outputs.
    Returns (da, dx, dh_prev, dc_prev), where ``da`` is the gradient of the
    gate pre-activations ``a = xh @ W.T + b``. The step's weight gradients
    are ``np.outer(da, xh)`` for W (``xh = cache[1]``) and ``da`` for b; a
    caller running several steps or rows stacks their ``da`` and ``xh``
    rows and forms the W gradient of all of them as one ``da.T @ xh``
    product.
    """
    W, xh, c_prev, i, f, o, g, tc, xdim = cache
    do = dh * tc
    dct = dc + dh * o * (1.0 - tc * tc)
    di = dct * g
    df = dct * c_prev
    dg = dct * i
    dc_prev = dct * f
    da = np.concatenate([
        di * i * (1.0 - i),
        df * f * (1.0 - f),
        do * o * (1.0 - o),
        dg * (1.0 - g * g),
    ], axis=-1)
    dxh = da @ W
    return da, dxh[..., :xdim], dxh[..., xdim:], dc_prev


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam (Kingma and Ba, 2015) with bias correction, the optimizer of
    both trainers; ``step(p, g)`` updates ``p``, the vector of a param set
    packed by ``pack_params``, in place from ``g``, its packed gradients.

    ``step`` walks the vector in blocks of ``BLOCK`` elements, so that
    every intermediate of a block stays in cache. The intermediates are
    written into one pair of scratch buffers made at the first step, with
    the moment vectors; later steps allocate nothing the size of a weight.
    The operations and their order are those of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g`` and ``p -= lr*mhat / (sqrt(vhat) + eps)``
    (``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``): bitwise that formula.
    """

    BLOCK = 1 << 16

    def __init__(self, lr=1e-3):
        self.lr = lr
        self._m = None
        self._v = None
        self._scratch = None
        self._t = 0

    def step(self, p, g):
        if self._m is None:
            self._m, self._v = np.zeros_like(p), np.zeros_like(p)
            size = min(p.size, self.BLOCK)
            self._scratch = (np.empty(size, dtype=FLOAT), np.empty(size, dtype=FLOAT))
        self._t += 1
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        c1, c2 = 1 - b1 ** self._t, 1 - b2 ** self._t
        for a in range(0, p.size, self.BLOCK):
            gb, m, v = (x[a:a + self.BLOCK] for x in (g, self._m, self._v))
            step, den = (s[:gb.size] for s in self._scratch)
            m *= b1
            np.multiply(1 - b1, gb, out=step)
            m += step
            np.multiply(1 - b2, gb, out=step)
            step *= gb
            v *= b2
            v += step
            np.divide(m, c1, out=step)
            step *= self.lr
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += eps
            step /= den
            p[a:a + self.BLOCK] -= step


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the last finite-loss parameters."""

    def __init__(self, epoch, params):
        self.epoch = epoch
        self.params = params
        super().__init__(f"training diverged at epoch {epoch}; last good checkpoint attached")


def train_minibatches(params, n, batch_loss, epochs, batch_size, lr, rng, grad_clip=0.0):
    """Mini-batch Adam at learning rate ``lr`` over ``n`` items for ``epochs``
    epochs, each cut from ``rng.permutation(n)`` in batches of ``batch_size``.
    ``batch_loss(params, idx, grads)`` adds batch ``idx``'s gradients into
    ``grads`` and returns its loss rows, tuples of floats; the mean gradient is
    clipped to global norm ``grad_clip`` unless it is 0. Returns ``(params,
    history, clipped)``: the packed weights, each epoch's rows summed in order
    over ``n``, and the clipped batch count. Raises TrainingDiverged with the
    last finite epoch's weights if a sum or a weight is not finite."""
    flat, params = pack_params(params)
    good, last_good = pack_params(params)  # a copy, refreshed after each finite epoch
    # reused: fresh gradients per batch cost page faults
    gflat, grads = pack_params(zeros_like_params(params))
    opt = Adam(lr=lr)
    history, clipped = [], 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for epoch in range(epochs):
            order, rows = rng.permutation(n), []
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                gflat.fill(0.0)
                rows.extend(batch_loss(params, idx, grads))
                gflat /= len(idx)
                if grad_clip:
                    # per-view vdots in dict order: one vdot over gflat rounds differently
                    norm = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
                    if norm > grad_clip:
                        gflat *= grad_clip / norm
                        clipped += 1
                opt.step(flat, gflat)
            sums = [reduce(operator.add, col, 0.0) for col in zip(*rows)]
            if not (np.isfinite(sums).all() and np.isfinite(flat).all()):
                raise TrainingDiverged(epoch, last_good)
            history.append(tuple(s / n for s in sums))
            good[:] = flat
    return params, history, clipped


_KIND = {int: ("an integer", lambda v: _is_number(v, int)), float: ("a finite number", _is_finite),
         bool: ("a boolean", lambda v: isinstance(v, bool))}


def check_config(config, bounds):
    """Raise ValueError naming the first field of the dataclass ``config``
    that is not of its annotated type or lies outside its range, as
    ``<Class>.<field> = <value!r> is not <kind>`` or ``... is out of
    range``. An ``int`` field takes an integer but no boolean or float, a
    ``float`` field a finite number (an integer too) but no boolean, a
    ``bool`` field a boolean. ``bounds`` maps a field to its inclusive
    ``(low, high)`` range. Each config's ``__post_init__`` calls it, so a
    config that exists is valid."""
    for f in fields(config):
        kind, ok = _KIND[f.type]
        value = getattr(config, f.name)
        if not ok(value):
            raise ValueError(f"{type(config).__name__}.{f.name} = {value!r} is not {kind}")
        low, high = bounds.get(f.name, (-math.inf, math.inf))
        if not low <= value <= high:
            raise ValueError(f"{type(config).__name__}.{f.name} = {value!r} is out of range")


def _json_value(data, error):
    """The JSON value of the UTF-8 bytes ``data``. Bytes that are not UTF-8
    or JSON, or nest past the recursion limit, raise ``error("<json>", msg)``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error("<json>", f"is not JSON: {exc}") from None


def _read_object(obj, table, error, optional=()):
    """The values of the JSON object ``obj`` at the keys of ``table``, in
    table order. ``table`` maps a key to ``(test, kind)``: its value must
    pass ``test``, and ``kind`` says what passes. A key of ``optional`` may
    be absent, and reads as None. The first fault raises ``error(key,
    msg)``: key ``"<root>"`` for an ``obj`` that is not an object, else the
    key that is missing (``"lacks ['<key>']"``) or fails its test
    (``"<key> = <value> is not <kind>"``, the value's repr cut short)."""
    if not isinstance(obj, dict):
        raise error("<root>", "is not a JSON object")
    values = []
    for key, (test, kind) in table.items():
        value = obj.get(key)
        if key not in obj:
            if key not in optional:
                raise error(key, f"lacks [{key!r}]")
        elif not test(value):
            raise error(key, f"{key} = {reprlib.repr(value)} is not {kind}")
        values.append(value)
    return values
