"""Semi-supervised linking of character mentions to tracks.

A mention (gender, name) is encoded by a two-step LSTM over its gender
and name token embeddings; a scorer turns (mention encoding, track head
feature) into a logit per track and the softmax is the linking attention.
Training reconstructs the (gender, name) pair from the attention-weighted
track feature; clips with a single name and a single track additionally
supervise the attention directly, which is what seeds the semi-supervised
loop. The trained linker grounds every mention and from those groundings
the joint attention supervision targets are assembled.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import P_MAX, AlphaTarget, Clip, ClipPair, Corpus, cap_tracks
from .numerics import (
    FLOAT, glorot_uniform, lstm_init, lstm_step_backward, lstm_step_forward,
    make_optimizer, rng_stream, softmax, zeros_like_params,
)
from .track_features import NormStats, apply_norm, fit_norm_stats


@dataclass
class LinkerConfig:
    d_emb: int = 16
    hidden: int = 32
    scorer_hidden: int = 32
    recon_hidden: int = 32
    lam: float = 1.0  # weight of the supervised attention term
    optimizer: str = "adam"
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
        "b_s2": np.zeros(1, dtype=FLOAT),
        "W_r": glorot_uniform(rng, config.recon_hidden, d_head),
        "b_r": np.zeros(config.recon_hidden, dtype=FLOAT),
        "W_g": glorot_uniform(rng, 2, config.recon_hidden),
        "b_g": np.zeros(2, dtype=FLOAT),
        "W_n": glorot_uniform(rng, n_names, config.recon_hidden),
        "b_n": np.zeros(n_names, dtype=FLOAT),
    }


def _encode_mention(params, config, gender_row, name_row):
    H = config.hidden
    h0 = np.zeros(H, dtype=FLOAT)
    c0 = np.zeros(H, dtype=FLOAT)
    x1 = params["E_tok"][gender_row]
    x2 = params["E_tok"][name_row]
    h1, c1, cache1 = lstm_step_forward(params["W_lstm"], params["b_lstm"], x1, h0, c0)
    h2, c2, cache2 = lstm_step_forward(params["W_lstm"], params["b_lstm"], x2, h1, c1)
    return h2, (cache1, cache2)


def link_scores(params, config, gender_row, name_row, features):
    """Attention over tracks for one mention; returns (att, caches)."""
    features = np.asarray(features, dtype=FLOAT)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("link_scores: need at least one track")
    m, enc_caches = _encode_mention(params, config, gender_row, name_row)
    Z = np.hstack([np.tile(m, (features.shape[0], 1)), features])
    A = Z @ params["W_s1"].T + params["b_s1"]
    T = np.tanh(A)
    s = T @ params["w_s2"] + params["b_s2"][0]
    att = softmax(s)
    return att, (m, enc_caches, Z, T, s, features)


def _instance_loss_and_grads(params, config, inst, gender_row, name_row,
                             gender_idx, name_idx, grads):
    """Accumulate gradients for one instance; returns its scalar loss."""
    att, cache = link_scores(params, config, gender_row, name_row, inst.features)
    m, (cache1, cache2), Z, T, _, V = cache
    v_att = att @ V
    r_pre = params["W_r"] @ v_att + params["b_r"]
    r = np.tanh(r_pre)
    logits_g = params["W_g"] @ r + params["b_g"]
    logits_n = params["W_n"] @ r + params["b_n"]
    p_g = softmax(logits_g)
    p_n = softmax(logits_n)
    loss = -np.log(max(p_g[gender_idx], 1e-300)) - np.log(max(p_n[name_idx], 1e-300))
    if inst.supervised:
        loss += config.lam * -np.log(max(att[0], 1e-300))

    # reconstruction heads
    dg = p_g.copy()
    dg[gender_idx] -= 1.0
    dn = p_n.copy()
    dn[name_idx] -= 1.0
    grads["W_g"] += np.outer(dg, r)
    grads["b_g"] += dg
    grads["W_n"] += np.outer(dn, r)
    grads["b_n"] += dn
    dr = params["W_g"].T @ dg + params["W_n"].T @ dn
    dr_pre = dr * (1.0 - r * r)
    grads["W_r"] += np.outer(dr_pre, v_att)
    grads["b_r"] += dr_pre
    dv_att = params["W_r"].T @ dr_pre

    # attention: softmax jacobian from the pooled feature, plus the
    # supervised cross-entropy applied directly at the logits
    datt = V @ dv_att
    ds = att * (datt - float(att @ datt))
    if inst.supervised:
        sup = att.copy()
        sup[0] -= 1.0
        ds += config.lam * sup

    grads["w_s2"] += T.T @ ds
    grads["b_s2"][0] += ds.sum()
    dT = np.outer(ds, params["w_s2"])
    dA = dT * (1.0 - T * T)
    grads["W_s1"] += dA.T @ Z
    grads["b_s1"] += dA.sum(axis=0)
    dZ = dA @ params["W_s1"]
    dm = dZ[:, :config.hidden].sum(axis=0)

    dW2, db2, dx2, dh1, dc1 = lstm_step_backward(cache2, dm, np.zeros_like(dm))
    dW1, db1, dx1, _, _ = lstm_step_backward(cache1, dh1, dc1)
    grads["W_lstm"] += dW1 + dW2
    grads["b_lstm"] += db1 + db2
    grads["E_tok"][name_row] += dx2
    grads["E_tok"][gender_row] += dx1
    return float(loss)


@dataclass
class Linker:
    params: dict
    config: LinkerConfig
    norm: NormStats
    name_rows: dict   # character id -> embedding row
    history: list = field(default_factory=list)

    GENDER_ROWS = {"M": 0, "F": 1}
    GENDER_IDX = {"M": 0, "F": 1}

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
        feats = np.stack([apply_norm(t, self.norm).v_head for t in clip.tracks])
        out = []
        for m in sorted(clip.mentions, key=lambda m: m.pos):
            att = self.attention(m.gender, m.char_id, feats)
            out.append((m, clip.tracks[int(np.argmax(att))].id, att))
        return out


def build_link_instances(corpus: Corpus, norm: NormStats):
    """One instance per mention over both clips of every pair."""
    out = []
    for pair in corpus.pairs:
        for clip in (pair.prev, pair.cur):
            if clip is None or not clip.tracks:
                continue
            feats = np.stack([apply_norm(t, norm).v_head for t in clip.tracks])
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
    opt = make_optimizer(config.optimizer, lr=config.lr)
    rng = rng_stream(seed, "linker-train")

    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(instances))
        total = 0.0
        bs = config.batch_size or len(instances)
        for start in range(0, len(order), bs):
            batch = order[start:start + bs]
            grads = zeros_like_params(params)
            for idx in batch:
                inst = instances[idx]
                total += _instance_loss_and_grads(
                    params, config, inst,
                    Linker.GENDER_ROWS[inst.gender], name_rows[inst.name_id],
                    Linker.GENDER_IDX[inst.gender], name_idx[inst.name_id],
                    grads)
            for k in grads:
                grads[k] /= len(batch)
            opt.step(params, grads)
        history.append(total / len(instances))
    return Linker(params=params, config=config, norm=norm,
                  name_rows=name_rows, history=history)


def linker_loss(params, config, instances, name_rows, name_idx):
    """Mean loss and gradients over fixed instances (for checks/tests)."""
    grads = zeros_like_params(params)
    total = 0.0
    for inst in instances:
        total += _instance_loss_and_grads(
            params, config, inst,
            Linker.GENDER_ROWS[inst.gender], name_rows[inst.name_id],
            Linker.GENDER_IDX[inst.gender], name_idx[inst.name_id], grads)
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

@dataclass
class PairSupervision:
    pair_id: int
    prev_grounding: list  # (track_id, char_id, gender), sentence order
    targets: list         # AlphaTarget per supervised person-word position


def linked_prev_grounding(linker: Linker, pair: ClipPair):
    if pair.prev is None or not pair.prev.tracks:
        return []
    out = []
    seen = set()
    for m, tid, _ in linker.link_clip(pair.prev):
        if m.char_id in seen:
            continue
        seen.add(m.char_id)
        out.append((tid, m.char_id, m.gender))
    return out[:P_MAX]


def build_attention_gt(linker: Linker, corpus: Corpus):
    """Joint (previous, current) attention targets from linker groundings.

    For a mention at position tau the current cell is the linked track;
    the previous cell is the linked track of the co-referent mention in
    the previous sentence when it survives the candidate cap, else the
    null track. Mentions whose linked track falls outside the capped
    track list are left unsupervised (skipped).
    """
    out = []
    for pair in corpus.pairs:
        grounding = linked_prev_grounding(linker, pair)
        prev_pos = {char: i + 1 for i, (_, char, _) in enumerate(grounding)}
        targets = []
        if pair.cur.tracks:
            index_of = {t.id: i + 1 for i, t in enumerate(cap_tracks(pair.cur.tracks))}
            for m, tid, _ in linker.link_clip(pair.cur):
                c = index_of.get(tid)
                if c is None:
                    continue  # capped away: unsupervised position
                p = prev_pos.get(m.coref_prev, 0) if m.coref_prev is not None else 0
                targets.append(AlphaTarget(tau=m.pos, p=p, c=c))
        out.append(PairSupervision(pair_id=pair.id, prev_grounding=grounding,
                                   targets=targets))
    return out
