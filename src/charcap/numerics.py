"""Dense numeric kernels shared by every learned module.

Everything is float64 numpy. Parameters of a model are kept in a plain
``dict[str, np.ndarray]`` (a "param set"); gradients use the same keys.
Each forward kernel has a hand-written backward companion, verified by
``finite_diff_check`` in the test suite. Both trainers update their
param sets with ``Adam``.
"""

import zlib

import numpy as np

FLOAT = np.float64


def softmax(logits):
    """Shift-invariant softmax of a nonempty finite 1-D vector."""
    z = np.asarray(logits, dtype=FLOAT)
    if z.size == 0:
        raise ValueError("softmax: empty input")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax: non-finite input")
    e = np.exp(z - z.max())
    return e / e.sum()


def masked_softmax(logits, valid):
    """Softmax over the cells where ``valid`` is True; invalid cells get 0.

    Used for attention grids with padding slots. At least one cell must
    be valid.
    """
    z = np.asarray(logits, dtype=FLOAT)
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise ValueError("masked_softmax: no valid cells")
    zmax = z[valid].max()
    e = np.where(valid, np.exp(np.where(valid, z, zmax) - zmax), 0.0)
    return e / e.sum()


def cross_entropy(logits, target, valid=None):
    """-log softmax(logits)[target], as log-sum-exp less the target logit.

    Finite whenever the logits are, also where the target's probability
    underflows to 0. With ``valid`` the softmax runs over the valid cells
    only (as ``masked_softmax``); ``target`` indexes ``logits``.
    """
    z = np.asarray(logits, dtype=FLOAT)
    zt = z[target]
    if valid is not None:
        z = z[np.asarray(valid, dtype=bool)]
    zmax = z.max()
    return float(np.log(np.exp(z - zmax).sum()) - (zt - zmax))


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
    x = np.asarray(x, dtype=FLOAT)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def rng_stream(seed, label=""):
    """Seeded generator; equal (seed, label) gives a bit-identical stream.

    ``label`` names a substream so one run-level seed can feed many
    independent consumers deterministically.
    """
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, key]))


def glorot_uniform(rng, rows, cols=None):
    """Uniform init in [-r, r] with r = sqrt(6 / (fan_in + fan_out))."""
    if cols is None:
        r = np.sqrt(6.0 / (rows + 1))
        return rng.uniform(-r, r, size=rows).astype(FLOAT)
    r = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-r, r, size=(rows, cols)).astype(FLOAT)


def zeros_like_params(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


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
    both trainers; ``step`` updates a param set in place from its gradients."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = None
        self._v = None
        self._t = 0

    def step(self, params, grads):
        if self._m is None:
            self._m = zeros_like_params(params)
            self._v = zeros_like_params(params)
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self._t, 1 - b2 ** self._t
        # in place, with the rounding of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*g*g and p -= lr*mhat / (sqrt(vhat) + eps)
        for k in params:
            g, m, v = grads[k], self._m[k], self._v[k]
            m *= b1
            m += (1 - b1) * g
            gg = (1 - b2) * g
            gg *= g
            v *= b2
            v += gg
            step = m / c1
            step *= self.lr
            den = v / c2
            np.sqrt(den, out=den)
            den += self.eps
            step /= den
            params[k] -= step


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(loss_fn, params, epsilon=1e-5, max_coords_per_array=8, seed=0):
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(params) -> (loss, grads)`` must be deterministic in
    ``params``. For each array up to ``max_coords_per_array`` coordinates
    are probed (all of them for small arrays). The relative error of a
    coordinate is |analytic - numeric| / max(1, |analytic| + |numeric|).
    """
    if epsilon <= 0:
        raise ValueError("finite_diff_check: epsilon must be positive")
    loss0, grads = loss_fn(params)
    if not np.isfinite(loss0):
        raise FloatingPointError("finite_diff_check: non-finite loss")
    rng = rng_stream(seed, "finite_diff_check")
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        flat = arr.reshape(-1)
        n = flat.size
        if n <= max_coords_per_array:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_array, replace=False)
        gflat = grads[name].reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + epsilon
            lp = loss_fn(params)[0]
            flat[idx] = orig - epsilon
            lm = loss_fn(params)[0]
            flat[idx] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise FloatingPointError("finite_diff_check: non-finite loss")
            numeric = (lp - lm) / (2.0 * epsilon)
            analytic = gflat[idx]
            err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
            worst = max(worst, err)
    return worst
