"""Semi-supervised linking of character mentions to tracks.

A mention (gender, name) is encoded by a two-step LSTM over its gender
and name token embeddings; a scorer turns (mention encoding, track head
feature) into a logit per track and the softmax is the linking attention.
The logits carry no bias: the softmax over tracks is shift-invariant, so a
bias would change no output and its gradient would be exactly 0.
Training reconstructs the (gender, name) pair from the attention-weighted
track feature; clips with a single name and a single track additionally
supervise the attention directly, which is what seeds the semi-supervised
loop. A mini-batch of mentions runs as ``(B, ·)`` arrays, each mention's
tracks padded to the batch's largest count and masked out of the softmax;
``link_scores`` is the one-mention view of the same scorer. The trained
linker grounds every mention, and ``corpus.pair_supervision`` turns those
groundings into the joint attention supervision targets.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

# PairSupervision is re-exported: build_attention_gt returns it
from .corpus import Clip, Corpus, PairSupervision, pair_supervision  # noqa: F401
from .numerics import (
    Adam, FLOAT, glorot_uniform, lstm_init, lstm_step_backward, lstm_step_forward,
    rng_stream, softmax_cross_entropy, zeros_like_params,
)
from .track_features import NormStats, fit_norm_stats


@dataclass
class LinkerConfig:
    d_emb: int = 16
    hidden: int = 32
    scorer_hidden: int = 32
    recon_hidden: int = 32
    lr: float = 0.01
    epochs: int = 60
    batch_size: int = 16


@dataclass
class LinkInstance:
    gender: str
    name_id: int
    features: np.ndarray          # (C, d_head) normalized track heads
    track_ids: list               # aligned with rows of features
    supervised: bool              # singleton clip: one name, one track
    gt_track_ids: list = field(default_factory=list)


def init_linker_params(config: LinkerConfig, n_names, d_head, seed):
    rng = rng_stream(seed, "linker-init")
    W_lstm, b_lstm = lstm_init(rng, config.d_emb, config.hidden)
    return {
        "E_tok": glorot_uniform(rng, 2 + n_names, config.d_emb),
        "W_lstm": W_lstm,
        "b_lstm": b_lstm,
        "W_s1": glorot_uniform(rng, config.scorer_hidden, config.hidden + d_head),
        "b_s1": np.zeros(config.scorer_hidden, dtype=FLOAT),
        "w_s2": glorot_uniform(rng, config.scorer_hidden),
        "W_r": glorot_uniform(rng, config.recon_hidden, d_head),
        "b_r": np.zeros(config.recon_hidden, dtype=FLOAT),
        "W_g": glorot_uniform(rng, 2, config.recon_hidden),
        "b_g": np.zeros(2, dtype=FLOAT),
        "W_n": glorot_uniform(rng, n_names, config.recon_hidden),
        "b_n": np.zeros(n_names, dtype=FLOAT),
    }


def _heads(tracks, norm: NormStats):
    """Normalized head vectors of ``tracks`` as one ``(C, d_head)`` array;
    element for element the ``v_head`` of ``apply_norm(track, norm)``."""
    heads = np.stack([t.v_head for t in tracks])
    return (heads - norm.mean["v_head"]) / norm.std["v_head"]


def _pad_tracks(features):
    """Stack per-mention track features ``(C_b, d_head)`` into ``(B, C, d_head)``
    rows padded with zeros to the largest C; returns (V, valid)."""
    C = max(len(f) for f in features)
    V = np.zeros((len(features), C, features[0].shape[1]), dtype=FLOAT)
    valid = np.zeros((len(features), C), dtype=bool)
    for b, f in enumerate(features):
        V[b, :len(f)] = f
        valid[b, :len(f)] = True
    return V, valid


def _score(params, config, gender_rows, name_rows, V, valid):
    """Attention of B mentions over their tracks.

    ``V`` (B, C, d_head) holds each mention's track features, ``valid``
    (B, C) marks the real ones; padding tracks get exactly 0 attention.
    The scorer's first layer ``W_s1 @ [m; v]`` is applied as a mention part
    (once per mention) plus a track part (once per track), so the pair
    ``[m; v]`` is never formed. Returns (att, ce_first, T, m, lstm_caches),
    with ``ce_first`` each row's cross-entropy against its first track, the
    supervised loss of a singleton clip's mention.
    """
    H = config.hidden
    B, C, d = V.shape
    W, b = params["W_lstm"], params["b_lstm"]
    zeros = np.zeros((B, H), dtype=FLOAT)
    h1, c1, cache1 = lstm_step_forward(W, b, params["E_tok"][gender_rows], zeros, zeros)
    m, _, cache2 = lstm_step_forward(W, b, params["E_tok"][name_rows], h1, c1)
    W1 = params["W_s1"]
    A = ((V.reshape(-1, d) @ W1[:, H:].T).reshape(B, C, -1)
         + (m @ W1[:, :H].T)[:, None, :] + params["b_s1"])
    T = np.tanh(A)
    s = T @ params["w_s2"]
    att, ce_first = softmax_cross_entropy(s, np.zeros(B, dtype=int), valid)
    return att, ce_first, T, m, (cache1, cache2)


def link_scores(params, config, gender_row, name_row, features):
    """Attention over tracks for one mention; returns (att, caches).

    The one-mention view of the batched scorer that training uses.
    """
    features = np.asarray(features, dtype=FLOAT)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("link_scores: need at least one track")
    att, *caches = _score(params, config, [gender_row], [name_row], features[None],
                          np.ones((1, len(features)), dtype=bool))
    return att[0], caches


def _batch_loss_and_grads(params, config, instances, name_rows, name_idx, grads):
    """Accumulate the gradients of a batch of instances into ``grads``;
    returns the batch's summed loss.

    The batch runs as ``(B, ·)`` arrays: tracks padded to the batch's
    largest C, the two-step mention encoder on rows, a masked softmax over
    tracks and the reconstruction heads as matmuls.
    """
    H = config.hidden
    genders = np.array([Linker.GENDER_ROWS[i.gender] for i in instances])
    rows = np.array([name_rows[i.name_id] for i in instances])
    names = np.array([name_idx[i.name_id] for i in instances])
    sup = np.array([i.supervised for i in instances])
    V, valid = _pad_tracks([i.features for i in instances])
    B, C, d = V.shape
    att, ce_first, T, m, (cache1, cache2) = _score(params, config, genders, rows, V, valid)

    v_att = (att[:, None, :] @ V)[:, 0]
    r = np.tanh(v_att @ params["W_r"].T + params["b_r"])
    dg, loss_g = softmax_cross_entropy(r @ params["W_g"].T + params["b_g"], genders)
    dn, loss_n = softmax_cross_entropy(r @ params["W_n"].T + params["b_n"], names)
    loss = loss_g.sum() + loss_n.sum() + ce_first[sup].sum()

    # reconstruction heads
    dg[np.arange(B), genders] -= 1.0
    dn[np.arange(B), names] -= 1.0
    grads["W_g"] += dg.T @ r
    grads["b_g"] += dg.sum(axis=0)
    grads["W_n"] += dn.T @ r
    grads["b_n"] += dn.sum(axis=0)
    dr_pre = (dg @ params["W_g"] + dn @ params["W_n"]) * (1.0 - r * r)
    grads["W_r"] += dr_pre.T @ v_att
    grads["b_r"] += dr_pre.sum(axis=0)
    dv_att = dr_pre @ params["W_r"]

    # attention: softmax jacobian from the pooled feature, plus the
    # supervised cross-entropy applied directly at the logits
    datt = (V @ dv_att[:, :, None])[:, :, 0]
    ds = att * (datt - (att * datt).sum(axis=1, keepdims=True))
    ds[sup] += att[sup]
    ds[sup, 0] -= 1.0

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
    name_rows: dict   # character id -> embedding row
    history: list = field(default_factory=list)
    supervised_instances: int = 0  # training instances from singleton clips

    GENDER_ROWS = {"M": 0, "F": 1}  # embedding row and reconstruction class

    def _rows(self, gender, name_id):
        if name_id not in self.name_rows:
            raise KeyError(f"linker was not trained on character {name_id}")
        return self.GENDER_ROWS[gender], self.name_rows[name_id]

    def attention(self, gender, name_id, features):
        g, nrow = self._rows(gender, name_id)
        att, _ = link_scores(self.params, self.config, g, nrow, features)
        return att

    def link_clip(self, clip: Clip):
        """Grounded track id per mention of a clip, in sentence order.

        Returns list of (mention, track_id, attention). Raises on a clip
        without tracks; callers skip such clips.
        """
        if not clip.tracks:
            raise ValueError(f"clip {clip.id}: no tracks to link against")
        feats = _heads(clip.tracks, self.norm)
        mentions = sorted(clip.mentions, key=lambda m: m.pos)
        if not mentions:
            return []
        genders, rows = zip(*(self._rows(m.gender, m.char_id) for m in mentions))
        shape = (len(mentions),) + feats.shape
        att = _score(self.params, self.config, list(genders), list(rows),
                     np.broadcast_to(feats, shape), np.ones(shape[:2], dtype=bool))[0]
        return [(m, clip.tracks[int(np.argmax(a))].id, a) for m, a in zip(mentions, att)]


def build_link_instances(corpus: Corpus, norm: NormStats):
    """One instance per mention over both clips of every pair."""
    out = []
    for pair in corpus.pairs:
        for clip in (pair.prev, pair.cur):
            if clip is None or not clip.tracks:
                continue
            feats = _heads(clip.tracks, norm)
            names_in_sentence = len(clip.mentions)
            singleton = len(clip.tracks) == 1 and names_in_sentence == 1
            for m in clip.mentions:
                out.append(LinkInstance(
                    gender=m.gender, name_id=m.char_id, features=feats,
                    track_ids=[t.id for t in clip.tracks],
                    supervised=singleton, gt_track_ids=list(m.gt_track_ids)))
    return out


def train_linker(corpus: Corpus, config: LinkerConfig = None, seed=0):
    """Train on every mention of the corpus; returns a ready ``Linker``."""
    config = config or LinkerConfig()
    all_tracks = [t for clip in corpus.clips for t in clip.tracks]
    norm = fit_norm_stats(all_tracks)
    instances = build_link_instances(corpus, norm)
    if not instances:
        raise ValueError("train_linker: corpus has no mentions")
    if not any(i.supervised for i in instances):
        warnings.warn("no singleton (one name, one track) clips: training "
                      "fully unsupervised", stacklevel=2)

    name_ids = sorted({i.name_id for i in instances})
    name_rows = {nid: 2 + k for k, nid in enumerate(name_ids)}
    name_idx = {nid: k for k, nid in enumerate(name_ids)}
    d_head = instances[0].features.shape[1]
    params = init_linker_params(config, len(name_ids), d_head, seed)
    opt = Adam(lr=config.lr)
    rng = rng_stream(seed, "linker-train")

    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(instances))
        total = 0.0
        bs = config.batch_size or len(instances)
        for start in range(0, len(order), bs):
            batch = [instances[i] for i in order[start:start + bs]]
            grads = zeros_like_params(params)
            total += _batch_loss_and_grads(params, config, batch, name_rows,
                                           name_idx, grads)
            for k in grads:
                grads[k] /= len(batch)
            opt.step(params, grads)
        history.append(total / len(instances))
    return Linker(params=params, config=config, norm=norm,
                  name_rows=name_rows, history=history,
                  supervised_instances=sum(i.supervised for i in instances))


def linker_loss(params, config, instances, name_rows, name_idx):
    """Mean loss and gradients over fixed instances (for checks/tests)."""
    grads = zeros_like_params(params)
    total = _batch_loss_and_grads(params, config, instances, name_rows, name_idx, grads)
    n = len(instances)
    for k in grads:
        grads[k] /= n
    return total / n, grads


def linking_accuracy(linker: Linker, corpus: Corpus):
    """Fraction of mentions whose argmax track is a ground-truth track."""
    hit = n = 0
    for pair in corpus.pairs:
        for clip in (pair.prev, pair.cur):
            if clip is None or not clip.tracks:
                continue
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
    """Joint (previous, current) attention targets from linker groundings,
    one ``PairSupervision`` per pair, by ``corpus.pair_supervision``: each
    mention is grounded in its argmax track, and a clip without tracks
    grounds nothing."""
    def links(clip):
        if clip is None or not clip.tracks:
            return []
        return [(m, tid) for m, tid, _ in linker.link_clip(clip)]
    return [pair_supervision(pair, links(pair.prev), links(pair.cur))
            for pair in corpus.pairs]
