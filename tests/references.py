"""Reference functions that the tests check the library against: one-row
forms of its batched kernels and gradient oracles, and plain allocating
forms of its in-place loops."""

import numpy as np


def softmax(logits):
    """Shift-invariant softmax of a nonempty finite 1-D vector: the reference
    for ``cross_entropy``, ``numerics.masked_softmax``,
    ``numerics.softmax_cross_entropy`` and the linker and decoder gradient
    oracles."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax: empty input")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax: non-finite input")
    e = np.exp(z - z.max())
    return e / e.sum()


def cross_entropy(logits, target, valid=None):
    """-log softmax(logits)[target], as log-sum-exp less the target logit.

    Finite whenever the logits are, also where the target's probability
    underflows to 0. With ``valid`` the softmax runs over the valid cells
    only (as ``numerics.masked_softmax``); ``target`` indexes ``logits``.
    The reference for ``numerics.softmax_cross_entropy``'s losses and the
    decoder's attention loss.
    """
    z = np.asarray(logits, dtype=np.float64)
    zt = z[target]
    if valid is not None:
        z = z[np.asarray(valid, dtype=bool)]
    zmax = z.max()
    return float(np.log(np.exp(z - zmax).sum()) - (zt - zmax))


def fit_pairwise_model(samples, iters, steps=None):
    """``multicut.fit_pairwise_model``'s gradient descent written with one
    new array per operation: ``iters`` steps of size 1 on the logistic loss,
    with the logits clipped to [-500, 500]. Returns ``(weights, bias)``.
    When ``steps`` is a list, each step's ``(logits, probabilities)`` is
    appended to it."""
    X = np.stack([np.asarray(f, dtype=np.float64) for f, _ in samples])
    y = np.array([1.0 if lab else 0.0 for _, lab in samples])
    Xb = np.hstack([X, np.ones((len(y), 1))])
    w = np.zeros(Xb.shape[1])
    n = len(y)
    for _ in range(iters):
        z = Xb @ w
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        if steps is not None:
            steps.append((z, p))
        w -= Xb.T @ (p - y) / n
    return w[:-1], float(w[-1])


def track_stats(track):
    """``track_features.track_stats`` with one 1-D array per quantity."""
    dets = track.detections
    w = np.array([d.w for d in dets], dtype=np.float64)
    h = np.array([d.h for d in dets], dtype=np.float64)
    cx = np.array([d.x for d in dets], dtype=np.float64)
    cy = np.array([d.y for d in dets], dtype=np.float64)
    s = np.array([d.score for d in dets], dtype=np.float64)
    return np.array([
        len(dets),
        w.mean(), w.std(),
        h.mean(), h.std(),
        cx.mean(), cx.std(),
        cy.mean(), cy.std(),
        s.mean(), s.std(),
    ], dtype=np.float64)
