"""Reference functions that the tests check the library against: one-row
forms of its batched kernels and gradient oracles, plain allocating
forms of its in-place loops, and corpus generation's draws as the
``rng.uniform`` and ``rng.normal`` calls they stand for."""

import numpy as np

from charcap.corpus import FRAME_H, FRAME_W, Character, ConfigError
from charcap.track_features import Detection


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
    """One track's row of ``track_features.track_stats``, with one 1-D
    array per quantity."""
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


# corpus generation, one draw call per quantity, as ``corpus`` once made
# them: the test swaps these in for the ``corpus`` functions of the same
# name with a leading underscore

def make_characters(config, rng):
    chars = []
    centers = []
    for cid in range(config.n_characters):
        gender = "M" if cid % 2 == 0 else "F"
        placed = None
        for _ in range(500):
            v = rng.normal(0.0, config.margin, size=config.d_head)
            v[0] = config.margin if gender == "M" else -config.margin
            if all(np.linalg.norm(v - c) >= config.margin for c in centers):
                placed = v
                break
        if placed is None:
            raise ConfigError("cannot place the characters")
        body = rng.normal(0.0, config.margin, size=config.d_body)
        body[0] = config.margin if gender == "M" else -config.margin
        centers.append(placed)
        chars.append(Character(cid, gender, placed.astype(np.float64), body.astype(np.float64)))
    return chars


def described_geometry(rng):
    n = int(rng.integers(5, 10))
    w = rng.uniform(48.0, 72.0)
    h = w * rng.uniform(0.9, 1.1)
    cx = FRAME_W / 2.0 + rng.normal(0.0, FRAME_W / 10.0)
    cy = FRAME_H / 2.0 + rng.normal(0.0, FRAME_H / 10.0)
    return n, w, h, cx, cy


def distractor_geometry(rng):
    n = int(rng.integers(3, 6))
    w = rng.uniform(28.0, 44.0)
    h = w * rng.uniform(0.9, 1.1)
    cx = rng.uniform(0.15, 0.85) * FRAME_W
    cy = rng.uniform(0.15, 0.85) * FRAME_H
    return n, w, h, cx, cy


def make_detections(rng, n, w, h, cx, cy, score_lo, score_hi):
    t0 = int(rng.integers(0, 3))
    vx, vy = rng.normal(0.0, 1.5, size=2)
    dets = []
    for i in range(n):
        dets.append(Detection(
            t=t0 + i,
            x=cx + vx * i + rng.normal(0.0, 0.5),
            y=cy + vy * i + rng.normal(0.0, 0.5),
            w=w * rng.uniform(0.97, 1.03),
            h=h * rng.uniform(0.97, 1.03),
            score=float(rng.uniform(score_lo, score_hi)),
        ))
    return dets


def appearance(rng, ch, sigma):
    head = ch.head_center + rng.normal(0.0, sigma, size=ch.head_center.shape)
    body = ch.body_center + rng.normal(0.0, sigma, size=ch.body_center.shape)
    return head, body
