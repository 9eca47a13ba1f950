"""Linking of character mentions to tracks by reconstruction.

A mention (gender, name) is encoded by a two-step LSTM over its gender
and name token embeddings; a scorer turns (mention encoding, track head
feature) into a logit per track and the softmax is the linking attention.
The logits carry no bias: the softmax over tracks is shift-invariant, so a
bias would change no output and its gradient would be exactly 0.
Training reconstructs the (gender, name) pair from the attention-weighted
track feature (GroundeR's loss; Rohrbach et al., ECCV 2016) and supervises
no link: a singleton clip's one track has attention exactly 1, so its
cross-entropy would be 0. A mini-batch of mentions runs as ``(B, ·)``
arrays, each mention's tracks padded to the batch's largest count and
masked out of the softmax (training pads every mention once and cuts each
batch from that); ``Linker.link_clip`` scores all mentions of a
clip the same way. Training runs the decoder's loop,
``numerics.train_minibatches``, unclipped, with a batch's summed loss as
its one loss row. ``LinkerConfig`` holds the epoch count alone, checked
when it is made; the widths ``D_EMB``, ``HIDDEN``, ``SCORER_HIDDEN`` and
``RECON_HIDDEN``, Adam's ``LR`` and the ``BATCH_SIZE`` are module
constants, read when the weights are made and trained; every other
function reads the widths off the weights. The trained linker grounds
every mention, and ``corpus.pair_supervision`` turns those groundings
into each pair's previous-clip candidates and current-clip links, which
the decoder places on its attention grid as supervision targets.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Clip, Corpus, pair_supervision
from .numerics import (
    FLOAT, check_config, glorot_uniform, lstm_init, lstm_step_backward, lstm_step_forward,
    masked_softmax, pad_rows, rng_stream, softmax_cross_entropy, train_minibatches,
)
from .track_features import NormStats, apply_norm, fit_norm_stats

D_EMB = 16  # width of the gender and name token embeddings
HIDDEN = 32  # the mention encoder's LSTM width
SCORER_HIDDEN = 32  # the scorer's hidden width
RECON_HIDDEN = 32  # the reconstruction heads' hidden width
LR = 0.01  # Adam's learning rate
BATCH_SIZE = 16  # mentions per mini-batch


@dataclass(frozen=True)
class LinkerConfig:
    epochs: int = 60

    def __post_init__(self):
        check_config(self, {"epochs": (0, math.inf)})


@dataclass
class LinkInstance:
    gender: str
    name_id: int
    features: np.ndarray          # (C, d_head) normalized track heads
    supervised: bool              # singleton clip (one name, one track): link known


def init_linker_params(n_names, d_head, seed):
    rng = rng_stream(seed, "linker-init")
    W_lstm, b_lstm = lstm_init(rng, D_EMB, HIDDEN)
    return {
        "E_tok": glorot_uniform(rng, 2 + n_names, D_EMB),
        "W_lstm": W_lstm,
        "b_lstm": b_lstm,
        "W_s1": glorot_uniform(rng, SCORER_HIDDEN, HIDDEN + d_head),
        "b_s1": np.zeros(SCORER_HIDDEN, dtype=FLOAT),
        "w_s2": glorot_uniform(rng, SCORER_HIDDEN),
        "W_r": glorot_uniform(rng, RECON_HIDDEN, d_head),
        "b_r": np.zeros(RECON_HIDDEN, dtype=FLOAT),
        "W_g": glorot_uniform(rng, 2, RECON_HIDDEN),
        "b_g": np.zeros(2, dtype=FLOAT),
        "W_n": glorot_uniform(rng, n_names, RECON_HIDDEN),
        "b_n": np.zeros(n_names, dtype=FLOAT),
    }


def _score(params, gender_rows, name_rows, V, valid):
    """Attention of B mentions over their tracks.

    ``V`` (B, C, d_head) holds each mention's track features, ``valid``
    (B, C) marks the real ones; padding tracks get exactly 0 attention.
    The scorer's first layer ``W_s1 @ [m; v]`` is applied as a mention part
    (once per mention) plus a track part (once per track), so the pair
    ``[m; v]`` is never formed. The LSTM width is read off ``W_lstm``.
    Returns (att, T, m, lstm_caches).
    """
    B, C, d = V.shape
    W, b = params["W_lstm"], params["b_lstm"]
    H = W.shape[0] // 4
    zeros = np.zeros((B, H), dtype=FLOAT)
    h1, c1, cache1 = lstm_step_forward(W, b, params["E_tok"][gender_rows], zeros, zeros)
    m, _, cache2 = lstm_step_forward(W, b, params["E_tok"][name_rows], h1, c1)
    W1 = params["W_s1"]
    A = ((V.reshape(-1, d) @ W1[:, H:].T).reshape(B, C, -1)
         + (m @ W1[:, :H].T)[:, None, :] + params["b_s1"])
    T = np.tanh(A)
    s = T @ params["w_s2"]
    att = masked_softmax(s, valid)
    return att, T, m, (cache1, cache2)


def _padded_instances(instances, names):
    """Every instance's gender row and name class (``names`` maps each
    character to its class) and its tracks, padded once by ``pad_rows``:
    returns ``(genders, classes, V, valid)`` over all instances."""
    genders = np.array([Linker.GENDER_ROWS[i.gender] for i in instances])
    classes = np.array([names[i.name_id] for i in instances])
    return (genders, classes) + pad_rows([i.features for i in instances])


def _batch(padded, idx):
    """Instances ``idx`` of ``_padded_instances``' arrays, the tracks cut to
    the batch's largest count: ``V`` and ``valid`` are bitwise ``pad_rows``
    of the batch's own features."""
    genders, classes, V, valid = padded
    c = valid[idx].sum(axis=1).max()
    return genders[idx], classes[idx], V[idx, :c], valid[idx, :c]


def _batch_loss_and_grads(params, batch, grads):
    """Accumulate the gradients of a ``_batch`` into ``grads``; returns the
    batch's summed loss.

    The batch runs as ``(B, ·)`` arrays: tracks padded to the batch's
    largest C, the two-step mention encoder on rows, a masked softmax over
    tracks and the reconstruction heads as matmuls. A mention's name
    embedding row is ``2 + class``.
    """
    genders, classes, V, valid = batch
    rows = 2 + classes
    B, C, d = V.shape
    att, T, m, (cache1, cache2) = _score(params, genders, rows, V, valid)
    H = m.shape[1]

    v_att = (att[:, None, :] @ V)[:, 0]
    r = np.tanh(v_att @ params["W_r"].T + params["b_r"])
    dg, loss_g = softmax_cross_entropy(r @ params["W_g"].T + params["b_g"], genders)
    dn, loss_n = softmax_cross_entropy(r @ params["W_n"].T + params["b_n"], classes)
    loss = loss_g.sum() + loss_n.sum()

    # reconstruction heads
    dg[np.arange(B), genders] -= 1.0
    dn[np.arange(B), classes] -= 1.0
    grads["W_g"] += dg.T @ r
    grads["b_g"] += dg.sum(axis=0)
    grads["W_n"] += dn.T @ r
    grads["b_n"] += dn.sum(axis=0)
    dr_pre = (dg @ params["W_g"] + dn @ params["W_n"]) * (1.0 - r * r)
    grads["W_r"] += dr_pre.T @ v_att
    grads["b_r"] += dr_pre.sum(axis=0)
    dv_att = dr_pre @ params["W_r"]

    # attention: softmax jacobian from the pooled feature
    datt = (V @ dv_att[:, :, None])[:, :, 0]
    ds = att * (datt - (att * datt).sum(axis=1, keepdims=True))

    grads["w_s2"] += T.reshape(B * C, -1).T @ ds.reshape(-1)
    dA = ds[:, :, None] * params["w_s2"] * (1.0 - T * T)
    dA_m = dA.sum(axis=1)  # the mention part feeds every track's row
    grads["W_s1"][:, :H] += dA_m.T @ m
    grads["W_s1"][:, H:] += dA.reshape(B * C, -1).T @ V.reshape(B * C, d)
    grads["b_s1"] += dA_m.sum(axis=0)
    dm = dA_m @ params["W_s1"][:, :H]

    da2, dx2, dh1, dc1 = lstm_step_backward(cache2, dm, np.zeros_like(dm))
    da1, dx1, _, _ = lstm_step_backward(cache1, dh1, dc1)
    grads["W_lstm"] += np.vstack([da1, da2]).T @ np.vstack([cache1[1], cache2[1]])
    grads["b_lstm"] += da1.sum(axis=0) + da2.sum(axis=0)
    np.add.at(grads["E_tok"], np.concatenate([genders, rows]), np.vstack([dx1, dx2]))
    return float(loss)


@dataclass
class Linker:
    params: dict
    config: LinkerConfig
    norm: NormStats
    names: dict   # character id -> reconstruction class; embedding row 2 + class
    history: list = field(default_factory=list)
    supervised_instances: int = 0  # training mentions of singleton clips: link known

    GENDER_ROWS = {"M": 0, "F": 1}  # embedding row and reconstruction class

    def _rows(self, gender, name_id):
        if name_id not in self.names:
            raise KeyError(f"linker was not trained on character {name_id}")
        return self.GENDER_ROWS[gender], 2 + self.names[name_id]

    def link_clip(self, clip: Clip):
        """Grounded track id per mention of a clip, in sentence order.

        Returns list of (mention, track_id, attention); empty for a clip
        without tracks or without mentions.
        """
        mentions = sorted(clip.mentions, key=lambda m: m.pos)
        if not clip.tracks or not mentions:
            return []
        feats = apply_norm(clip.tracks, self.norm, "v_head")
        genders, rows = zip(*(self._rows(m.gender, m.char_id) for m in mentions))
        shape = (len(mentions),) + feats.shape
        att = _score(self.params, list(genders), list(rows),
                     np.broadcast_to(feats, shape), np.ones(shape[:2], dtype=bool))[0]
        return [(m, clip.tracks[int(np.argmax(a))].id, a) for m, a in zip(mentions, att)]


def build_link_instances(corpus: Corpus, norm: NormStats):
    """One instance per mention over both clips of every pair."""
    out = []
    for clip in corpus.clips:
        if not clip.tracks:
            continue
        feats = apply_norm(clip.tracks, norm, "v_head")
        singleton = len(clip.tracks) == 1 and len(clip.mentions) == 1
        for m in clip.mentions:
            out.append(LinkInstance(gender=m.gender, name_id=m.char_id,
                                    features=feats, supervised=singleton))
    return out


def train_linker(corpus: Corpus, config: LinkerConfig = None, seed=0):
    """Train on every mention of the corpus; returns a ready ``Linker``.
    Raises ValueError when the corpus has no mentions, and
    ``numerics.TrainingDiverged`` with the last finite-loss parameters if
    the loss or a weight goes non-finite."""
    config = config or LinkerConfig()
    norm = fit_norm_stats([t for clip in corpus.clips for t in clip.tracks])
    instances = build_link_instances(corpus, norm)
    if not instances:
        raise ValueError("train_linker: corpus has no mentions")

    names = {nid: k for k, nid in enumerate(sorted({i.name_id for i in instances}))}
    padded = _padded_instances(instances, names)

    def batch_loss(params, idx, grads):
        return [(_batch_loss_and_grads(params, _batch(padded, idx), grads),)]

    init = init_linker_params(len(names), instances[0].features.shape[1], seed)
    params, history, _ = train_minibatches(init, len(instances), batch_loss, config.epochs,
                                           BATCH_SIZE, LR, rng_stream(seed, "linker-train"))
    return Linker(params, config, norm, names, [loss for loss, in history],
                  supervised_instances=sum(i.supervised for i in instances))


def linking_accuracy(linker: Linker, corpus: Corpus):
    """Fraction of mentions whose argmax track is a ground-truth track."""
    hit = n = 0
    for clip in corpus.clips:
        for m, tid, _ in linker.link_clip(clip):
            if not m.gt_track_ids:
                continue
            n += 1
            hit += tid in m.gt_track_ids
    return hit / n if n else 0.0


# ---------------------------------------------------------------------------
# attention supervision targets
# ---------------------------------------------------------------------------

def build_attention_gt(linker: Linker, corpus: Corpus):
    """The decoder's attention supervision from linker groundings, one
    ``PairSupervision`` per pair, by ``corpus.pair_supervision``: each
    mention is grounded in its argmax track, and a clip without tracks
    grounds nothing."""
    def links(clip):
        if clip is None:
            return []
        return [(m, tid) for m, tid, _ in linker.link_clip(clip)]
    return [pair_supervision(pair, links(pair.prev), links(pair.cur))
            for pair in corpus.pairs]
