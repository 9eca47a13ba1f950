"""Reference functions that the tests check the library against: one-row
forms of its batched kernels and gradient oracles, the central-difference
gradient check, plain allocating forms of its in-place loops, corpus
generation's draws as the ``rng.uniform`` and ``rng.normal`` calls they
stand for, each trainer with its own copy of the mini-batch loop, and the
multicut solver's brute-force oracle.

The library's module constants are read at call time (``corpus.MARGIN``,
``linker.LR``), so a test that monkeypatches one changes the reference
with the library."""

import numpy as np

from charcap import corpus as corpus_module
from charcap import decoder, linker
from charcap.corpus import FRAME_H, FRAME_W, Character
from charcap.multicut import Partition, _cost_matrix, _objective
from charcap.numerics import Adam, pack_params, rng_stream, zeros_like_params
from charcap.track_features import Detection, NormStats, fit_norm_stats


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
            v = rng.normal(0.0, corpus_module.MARGIN, size=corpus_module.D_HEAD)
            v[0] = corpus_module.MARGIN if gender == "M" else -corpus_module.MARGIN
            if all(np.linalg.norm(v - c) >= corpus_module.MARGIN for c in centers):
                placed = v
                break
        if placed is None:
            raise ValueError("cannot place the characters")
        body = rng.normal(0.0, corpus_module.MARGIN, size=corpus_module.D_BODY)
        body[0] = corpus_module.MARGIN if gender == "M" else -corpus_module.MARGIN
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


def appearance(rng, ch):
    head = ch.head_center + rng.normal(0.0, corpus_module.SIGMA, size=ch.head_center.shape)
    body = ch.body_center + rng.normal(0.0, corpus_module.SIGMA, size=ch.body_center.shape)
    return head, body


# the two trainers as each once ran its own copy of the mini-batch Adam
# loop: the shared loop must give their weights, histories and counts
# bit for bit

def _clip_gradients(gflat, grads, max_norm):
    if not max_norm:
        return False
    total = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if total > max_norm:
        gflat *= max_norm / total
        return True
    return False


def train_linker(corpus, config, seed):
    norm = fit_norm_stats([t for clip in corpus.clips for t in clip.tracks])
    instances = linker.build_link_instances(corpus, norm)
    names = {nid: k for k, nid in enumerate(sorted({i.name_id for i in instances}))}
    d_head = instances[0].features.shape[1]
    flat, params = pack_params(linker.init_linker_params(len(names), d_head, seed))
    opt = Adam(lr=linker.LR)
    rng = rng_stream(seed, "linker-train")
    padded = linker._padded_instances(instances, names)
    history = []
    gflat, grads = pack_params(zeros_like_params(params))
    for _ in range(config.epochs):
        order = rng.permutation(len(instances))
        total = 0.0
        for start in range(0, len(order), linker.BATCH_SIZE):
            idx = order[start:start + linker.BATCH_SIZE]
            gflat.fill(0.0)
            total += linker._batch_loss_and_grads(params, linker._batch(padded, idx), grads)
            gflat /= len(idx)
            opt.step(flat, gflat)
        history.append(total / len(instances))
    return linker.Linker(params=params, config=config, norm=norm, names=names, history=history,
                         supervised_instances=sum(i.supervised for i in instances))


def train_decoder(corpus, supervision, config, seed):
    norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks])
    d_global = len(corpus.clips[0].v_global)
    items = decoder.build_train_items(corpus, supervision, norm)
    vocab = corpus.vocab
    flat, params = pack_params(decoder.init_decoder_params(
        config, len(vocab), *(len(norm.mean[blk]) for blk in NormStats.BLOCKS), d_global, seed))
    opt = Adam(lr=decoder.LR)
    rng = rng_stream(seed, "decoder-train")
    trained = decoder.TrainedDecoder(params=params, config=config, vocab=vocab, norm=norm,
                                     history=[])
    gflat, grads = pack_params(zeros_like_params(params))
    for epoch in range(config.epochs):
        order = rng.permutation(len(items))
        tot = wl = al = 0.0
        for start in range(0, len(order), decoder.BATCH_SIZE):
            batch = [items[i] for i in order[start:start + decoder.BATCH_SIZE]]
            gflat.fill(0.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                total, word, att, _, skipped = decoder.sentence_loss(params, vocab, batch, grads)
            for t, w, a in zip(total, word, att):
                tot, wl, al = tot + t, wl + w, al + a
            trained.skipped_targets += skipped
            gflat /= len(batch)
            trained.clipped_batches += _clip_gradients(gflat, grads, decoder.GRAD_CLIP)
            opt.step(flat, gflat)
        n = len(items)
        trained.history.append((tot / n, wl / n, al / n))
    return trained


# the exactness oracle of multicut.solve_multicut

def _set_partitions(n):
    """All set partitions of range(n) as label arrays (restricted growth)."""
    labels = np.zeros(n, dtype=int)
    maxes = np.zeros(n, dtype=int)
    while True:
        yield labels.copy()
        i = n - 1
        while i > 0:
            if labels[i] <= maxes[i - 1]:
                labels[i] += 1
                maxes[i] = max(maxes[i - 1], labels[i])
                labels[i + 1:] = 0
                maxes[i + 1:] = maxes[i]
                break
            i -= 1
        else:
            return


def brute_force_multicut(n, edges):
    """Exhaustive enumeration over all set partitions; exact but tiny-n only."""
    if n > 12:
        raise ValueError("brute force is limited to n <= 12")
    W = _cost_matrix(n, edges)
    best_obj, best_labels = -np.inf, None
    for labels in _set_partitions(n):
        obj = _objective(W, labels)
        if obj > best_obj + 1e-15:
            best_obj, best_labels = obj, labels
    return Partition(labels=best_labels, objective=best_obj)
