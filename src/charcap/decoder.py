"""Sentence decoder with joint attention over (previous, current) tracks.

At every step the decoder scores each cell of a (P+1) x C grid: previous
tracks of the pair (slot 0 is the null track, meaning "new character")
against current tracks. Per cell, a re-identification feature is the
element-wise product of the two head vectors (a constant -1 vector for
the null track), embedded together with the current track's head, body,
and statistics features; the cell logit multiplies that embedding
element-wise with an embedding of the recurrent hidden state. Softmax
over real cells gives the attention, whose weighted sum of concatenated
cell features is the grounded input to the LSTM, next to the global clip
vector and the previous word embedding.

Training uses teacher forcing with two equally weighted terms: word
cross-entropy at every step, and attention cross-entropy against the
automatic one-hot targets at supervised person-word steps. All gradients
are hand-written and finite-difference checked.

Checkpoints are a one-line JSON header (dims, vocab, array table)
followed by raw little-endian float64 blocks, one per named weight.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import P_MAX, ClipPair, Corpus, Vocabulary, cap_tracks
from .numerics import (
    FLOAT, glorot_uniform, lstm_init, lstm_step_backward, lstm_step_forward,
    make_optimizer, masked_softmax, rng_stream, softmax, zeros_like_params,
)
from .track_features import STAT_DIM, NormStats, apply_norm


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the last finite-loss parameters."""

    def __init__(self, epoch, params):
        self.epoch = epoch
        self.params = params
        super().__init__(f"training diverged at epoch {epoch}; "
                         "last good checkpoint attached")


@dataclass
class DecoderConfig:
    d_head: int = 64
    d_body: int = 64
    d_global: int = 263
    d_att: int = 64
    d_emb: int = 64
    hidden: int = 128
    max_len: int = 30
    attention_supervision: bool = True
    optimizer: str = "adam"
    lr: float = 0.003
    epochs: int = 30
    batch_size: int = 8
    grad_clip: float = 5.0

    @property
    def d_grounded(self):
        return 2 * self.d_head + self.d_body + STAT_DIM

    @property
    def d_input(self):
        return self.d_grounded + self.d_global + self.d_emb


def init_decoder_params(config: DecoderConfig, vocab_size, seed):
    rng = rng_stream(seed, "decoder-init")
    W_lstm, b_lstm = lstm_init(rng, config.d_input, config.hidden)
    da = config.d_att
    return {
        "E": glorot_uniform(rng, vocab_size, config.d_emb),
        "W_lstm": W_lstm,
        "b_lstm": b_lstm,
        "W_id": glorot_uniform(rng, da, config.d_head),
        "W_head": glorot_uniform(rng, da, config.d_head),
        "W_body": glorot_uniform(rng, da, config.d_body),
        "W_stat": glorot_uniform(rng, da, STAT_DIM),
        "b_v": np.zeros(da, dtype=FLOAT),
        "W_h": glorot_uniform(rng, da, config.hidden),
        "b_h": np.zeros(da, dtype=FLOAT),
        "w_att": glorot_uniform(rng, da),
        "b_att": np.zeros(1, dtype=FLOAT),
        "W_pred": glorot_uniform(rng, vocab_size, config.hidden),
        "b_pred": np.zeros(vocab_size, dtype=FLOAT),
    }


@dataclass
class PairFeatures:
    """Normalized numeric view of one clip pair, ready for the decoder.

    Feature rows may include padding slots (zero vectors) masked out by
    ``cur_valid``/``prev_valid``; real rows precede padding.
    """
    cur_head: np.ndarray    # (C_slots, d_head)
    cur_body: np.ndarray    # (C_slots, d_body)
    cur_stat: np.ndarray    # (C_slots, 11)
    prev_head: np.ndarray   # (P_slots, d_head), excludes the null track
    v_global: np.ndarray
    cur_valid: np.ndarray   # (C_slots,) bool
    prev_valid: np.ndarray  # (P_slots,) bool
    cur_track_ids: list = field(default_factory=list)
    prev_track_ids: list = field(default_factory=list)

    @property
    def n_cur(self):
        return int(self.cur_valid.sum())


def pair_features(pair: ClipPair, prev_grounding, norm: NormStats,
                  config: DecoderConfig):
    """Assemble features for the decoder; previous candidates come from
    ``prev_grounding`` (track_id, char, gender) triples of the pair's
    previous clip."""
    cur = [apply_norm(t, norm) for t in cap_tracks(pair.cur.tracks)]
    C = len(cur)
    ch = np.zeros((max(C, 1), config.d_head), dtype=FLOAT)
    cb = np.zeros((max(C, 1), config.d_body), dtype=FLOAT)
    cs = np.zeros((max(C, 1), STAT_DIM), dtype=FLOAT)
    cur_valid = np.zeros(max(C, 1), dtype=bool)
    for i, t in enumerate(cur):
        ch[i] = t.v_head
        cb[i] = t.v_body
        cs[i] = t.v_stat
        cur_valid[i] = True

    prev_tracks = []
    if pair.prev is not None:
        by_id = {t.id: t for t in pair.prev.tracks}
        for tid, _, _ in prev_grounding[:P_MAX]:
            if tid in by_id:
                prev_tracks.append(apply_norm(by_id[tid], norm))
    P = len(prev_tracks)
    ph = np.zeros((P, config.d_head), dtype=FLOAT)
    for i, t in enumerate(prev_tracks):
        ph[i] = t.v_head
    return PairFeatures(
        cur_head=ch, cur_body=cb, cur_stat=cs, prev_head=ph,
        v_global=np.asarray(pair.cur.v_global, dtype=FLOAT),
        cur_valid=cur_valid, prev_valid=np.ones(P, dtype=bool),
        cur_track_ids=[t.id for t in cur],
        prev_track_ids=[t.id for t in prev_tracks])


# ---------------------------------------------------------------------------
# joint attention step
# ---------------------------------------------------------------------------

def attention_step(params, h_prev, feats: PairFeatures):
    """One joint attention evaluation.

    Returns (alpha, v_grounded, cache): alpha has shape (P_slots+1,
    C_slots) with exact zeros on padding cells; v_grounded is the
    attention-weighted concatenation [head, body, stat, id] of the
    current-track features with the pairwise re-identification feature.
    """
    Vh, Vb, Vs = feats.cur_head, feats.cur_body, feats.cur_stat
    Hp = feats.prev_head
    Cs = Vh.shape[0]
    Ps = Hp.shape[0]

    # cell (0, c) is the null previous track: constant -1 vector
    M = np.empty((Ps + 1, Cs, Vh.shape[1]), dtype=FLOAT)
    M[0] = -1.0
    if Ps:
        M[1:] = Hp[:, None, :] * Vh[None, :, :]

    f_cur = Vh @ params["W_head"].T + Vb @ params["W_body"].T + Vs @ params["W_stat"].T
    F = M @ params["W_id"].T + f_cur[None, :, :] + params["b_v"]
    Tf = np.tanh(F)

    pre_q = params["W_h"] @ h_prev + params["b_h"]
    q = np.tanh(pre_q)
    u = params["w_att"] * q
    logits = Tf @ u + params["b_att"][0]

    valid = np.zeros((Ps + 1, Cs), dtype=bool)
    valid[0] = feats.cur_valid
    if Ps:
        valid[1:] = feats.prev_valid[:, None] & feats.cur_valid[None, :]

    if not valid.any():
        d_gr = 2 * Vh.shape[1] + Vb.shape[1] + Vs.shape[1]
        return None, np.zeros(d_gr, dtype=FLOAT), None

    alpha = masked_softmax(logits, valid)

    cell = np.concatenate([
        np.broadcast_to(Vh[None, :, :], M.shape).copy(),
        np.broadcast_to(Vb[None, :, :], (Ps + 1, Cs, Vb.shape[1])).copy(),
        np.broadcast_to(Vs[None, :, :], (Ps + 1, Cs, Vs.shape[1])).copy(),
        M,
    ], axis=2)
    v_grounded = np.einsum("pc,pcd->d", alpha, cell)
    cache = (M, Tf, q, pre_q, u, alpha, cell, valid, h_prev, f_cur, Vh, Vb, Vs)
    return alpha, v_grounded, cache


def attention_backward(params, cache, dv_grounded, dlogits_extra, grads):
    """Backward through one attention step.

    ``dlogits_extra`` carries the attention-loss gradient already at the
    logits (softmax cross-entropy shortcut); returns dh_prev.
    """
    M, Tf, q, pre_q, u, alpha, cell, valid, h_prev, f_cur, Vh, Vb, Vs = cache

    dalpha = np.einsum("pcd,d->pc", cell, dv_grounded)
    s = float((alpha * dalpha).sum())
    dlogits = alpha * (dalpha - s)
    if dlogits_extra is not None:
        dlogits = dlogits + dlogits_extra
    dlogits = np.where(valid, dlogits, 0.0)

    du = np.einsum("pc,pcd->d", dlogits, Tf)
    dTf = dlogits[:, :, None] * u[None, None, :]
    grads["w_att"] += du * q
    grads["b_att"][0] += dlogits.sum()
    dq = du * params["w_att"]
    dpre_q = dq * (1.0 - q * q)
    grads["W_h"] += np.outer(dpre_q, h_prev)
    grads["b_h"] += dpre_q
    dh_prev = params["W_h"].T @ dpre_q

    dF = dTf * (1.0 - Tf * Tf)
    grads["b_v"] += dF.sum(axis=(0, 1))
    grads["W_id"] += np.einsum("pck,pcd->kd", dF, M)
    df_cur = dF.sum(axis=0)
    grads["W_head"] += df_cur.T @ Vh
    grads["W_body"] += df_cur.T @ Vb
    grads["W_stat"] += df_cur.T @ Vs
    return dh_prev


# ---------------------------------------------------------------------------
# sentence loss (teacher forcing) and its gradients
# ---------------------------------------------------------------------------

def _extend(vocab: Vocabulary, sentence):
    from .corpus import BOS, EOS
    return [vocab.index(BOS)] + [vocab.index(t) for t in sentence] + [vocab.index(EOS)]


def sentence_loss(params, config, vocab, feats: PairFeatures, sentence,
                  alpha_targets=None, want_grads=True):
    """Teacher-forced loss of one clip pair.

    ``alpha_targets``: {sentence position tau: (p, c)} with p in 0..P and
    c in 1..C (1-based); positions pointing at padding cells are skipped
    but counted. Returns (total, word_loss, att_loss, grads, skipped).
    """
    from .corpus import PERSON_TOKENS
    tokens = _extend(vocab, sentence)
    person_idx = {vocab.index(t) for t in PERSON_TOKENS}
    alpha_targets = alpha_targets or {}
    H = config.hidden

    h = np.zeros(H, dtype=FLOAT)
    c = np.zeros(H, dtype=FLOAT)
    steps = []
    word_loss = 0.0
    att_loss = 0.0
    skipped = 0
    for step in range(1, len(tokens)):
        alpha, v_gr, att_cache = attention_step(params, h, feats)
        x = np.concatenate([v_gr, feats.v_global, params["E"][tokens[step - 1]]])
        h_new, c_new, lstm_cache = lstm_step_forward(
            params["W_lstm"], params["b_lstm"], x, h, c)
        logits = params["W_pred"] @ h_new + params["b_pred"]
        if not np.all(np.isfinite(logits)):
            # numeric blow-up: surface as non-finite loss so training aborts
            grads = zeros_like_params(params) if want_grads else None
            return np.inf, np.inf, att_loss, grads, skipped
        probs = softmax(logits)
        word_loss += -np.log(probs[tokens[step]]) if probs[tokens[step]] > 0 else np.inf

        target_cell = None
        tau = step - 1  # sentence position this step predicts
        if tokens[step] in person_idx and tau in alpha_targets and alpha is not None:
            p, ci = alpha_targets[tau]
            if p < alpha.shape[0] and 1 <= ci <= alpha.shape[1] and alpha[p, ci - 1] > 0.0:
                att_loss += -np.log(max(alpha[p, ci - 1], 1e-300))
                target_cell = (p, ci - 1)
            else:
                skipped += 1
        steps.append((att_cache, lstm_cache, probs, tokens[step],
                      tokens[step - 1], target_cell, alpha, h_new))
        h, c = h_new, c_new

    total = word_loss + att_loss
    if not want_grads:
        return total, word_loss, att_loss, None, skipped

    grads = zeros_like_params(params)
    dh = np.zeros(H, dtype=FLOAT)
    dc = np.zeros(H, dtype=FLOAT)
    d_gr = config.d_grounded
    for att_cache, lstm_cache, probs, w_t, w_in, target_cell, alpha, h_t in reversed(steps):
        dlogits = probs.copy()
        dlogits[w_t] -= 1.0
        grads["W_pred"] += np.outer(dlogits, h_t)
        grads["b_pred"] += dlogits
        dh = dh + params["W_pred"].T @ dlogits

        dW, db, dx, dh_prev, dc_prev = lstm_step_backward(lstm_cache, dh, dc)
        grads["W_lstm"] += dW
        grads["b_lstm"] += db
        grads["E"][w_in] += dx[d_gr + config.d_global:]
        dv_gr = dx[:d_gr]

        dlogits_extra = None
        if target_cell is not None:
            dlogits_extra = alpha.copy()
            dlogits_extra[target_cell] -= 1.0
        if att_cache is not None:
            dh_prev = dh_prev + attention_backward(params, att_cache, dv_gr,
                                                   dlogits_extra, grads)
        dh, dc = dh_prev, dc_prev
    return total, word_loss, att_loss, grads, skipped


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainItem:
    pair_id: int
    feats: PairFeatures
    sentence: list
    alpha_targets: dict  # tau -> (p, c)


def build_train_items(corpus: Corpus, supervision, norm, config: DecoderConfig):
    """``supervision``: iterable of PairSupervision-like objects carrying
    pair_id, prev_grounding, and AlphaTarget lists."""
    by_pair = {s.pair_id: s for s in supervision} if supervision else {}
    items = []
    for pair in corpus.pairs:
        sup = by_pair.get(pair.id)
        grounding = sup.prev_grounding if sup is not None else []
        feats = pair_features(pair, grounding, norm, config)
        targets = ({t.tau: (t.p, t.c) for t in sup.targets}
                   if sup is not None else {})
        items.append(TrainItem(pair.id, feats, pair.cur.sentence, targets))
    return items


@dataclass
class TrainedDecoder:
    params: dict
    config: DecoderConfig
    vocab: Vocabulary
    norm: NormStats
    history: list = field(default_factory=list)  # (total, word, att) per epoch


def _clip_gradients(grads, max_norm):
    if not max_norm:
        return
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for k in grads:
            grads[k] *= scale


def train_decoder(corpus: Corpus, supervision, config: DecoderConfig,
                  seed=0, norm=None, checkpoint_path=None):
    """Mini-batch training with teacher forcing; deterministic per seed.

    Attention supervision is dropped when config.attention_supervision is
    False (the words-only ablation). Raises TrainingDiverged with the
    last finite-loss parameters if the loss or a weight goes non-finite.
    """
    if norm is None:
        from .track_features import fit_norm_stats
        norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks])
    items = build_train_items(corpus, supervision, norm, config)
    if not config.attention_supervision:
        items = [TrainItem(i.pair_id, i.feats, i.sentence, {}) for i in items]
    vocab = corpus.vocab
    params = init_decoder_params(config, len(vocab), seed)
    opt = make_optimizer(config.optimizer, lr=config.lr)
    rng = rng_stream(seed, "decoder-train")
    trained = TrainedDecoder(params=params, config=config, vocab=vocab,
                             norm=norm, history=[])
    last_good = {k: v.copy() for k, v in params.items()}

    bs = config.batch_size or len(items)
    for epoch in range(config.epochs):
        order = rng.permutation(len(items))
        tot = wl = al = 0.0
        for start in range(0, len(order), bs):
            batch = order[start:start + bs]
            grads = zeros_like_params(params)
            for idx in batch:
                item = items[idx]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    t, w, a, g, _ = sentence_loss(
                        params, config, vocab, item.feats, item.sentence,
                        item.alpha_targets)
                tot += t
                wl += w
                al += a
                for k in g:
                    grads[k] += g[k]
            for k in grads:
                grads[k] /= len(batch)
            _clip_gradients(grads, config.grad_clip)
            opt.step(params, grads)
        n = len(items)
        epoch_loss = tot / n
        finite = np.isfinite(epoch_loss) and all(
            np.all(np.isfinite(v)) for v in params.values())
        if not finite:
            raise TrainingDiverged(epoch, last_good)
        trained.history.append((epoch_loss, wl / n, al / n))
        last_good = {k: v.copy() for k, v in params.items()}
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, trained)
    return trained


# ---------------------------------------------------------------------------
# greedy decoding
# ---------------------------------------------------------------------------

@dataclass
class GroundingPrediction:
    tau: int
    word: str
    c_track: int   # current track id
    p_track: int   # previous track id, 0 = null
    cell: tuple    # (p index, c index) in the attention grid, c 1-based


@dataclass
class DecodedClip:
    pair_id: int
    tokens: list
    predictions: list
    alphas: list


def decode_pair(trained: TrainedDecoder, pair: ClipPair, prev_grounding):
    """Greedy decoding of the pair's current clip.

    ``prev_grounding``: (track_id, char, gender) triples from the previous
    clip (may be empty, leaving only the null track). At each emitted
    person word the argmax attention cell is recorded as the predicted
    grounding and co-reference.
    """
    from .corpus import BOS, EOS, PERSON_TOKENS
    params, config, vocab = trained.params, trained.config, trained.vocab
    feats = pair_features(pair, prev_grounding, trained.norm, config)
    h = np.zeros(config.hidden, dtype=FLOAT)
    c = np.zeros(config.hidden, dtype=FLOAT)
    w_prev = vocab.index(BOS)
    eos = vocab.index(EOS)
    tokens = []
    predictions = []
    alphas = []
    for _ in range(config.max_len):
        alpha, v_gr, _ = attention_step(params, h, feats)
        x = np.concatenate([v_gr, feats.v_global, params["E"][w_prev]])
        h, c, _ = lstm_step_forward(params["W_lstm"], params["b_lstm"], x, h, c)
        logits = params["W_pred"] @ h + params["b_pred"]
        w = int(np.argmax(logits))
        if w == eos:
            break
        tau = len(tokens)
        word = vocab.tokens[w]
        tokens.append(word)
        alphas.append(alpha)
        if word in PERSON_TOKENS and alpha is not None:
            p, ci = np.unravel_index(int(np.argmax(alpha)), alpha.shape)
            c_track = feats.cur_track_ids[ci]
            p_track = 0 if p == 0 else feats.prev_track_ids[p - 1]
            predictions.append(GroundingPrediction(
                tau=tau, word=word, c_track=c_track, p_track=p_track,
                cell=(int(p), int(ci) + 1)))
        w_prev = w
    return DecodedClip(pair_id=pair.id, tokens=tokens,
                       predictions=predictions, alphas=alphas)


# ---------------------------------------------------------------------------
# checkpoints: JSON header line + raw little-endian float64 blocks
# ---------------------------------------------------------------------------

def save_checkpoint(path, trained: TrainedDecoder):
    from dataclasses import asdict
    names = sorted(trained.params)
    header = {
        "config": asdict(trained.config),
        "vocab": list(trained.vocab.tokens),
        "norm": trained.norm.to_json(),
        "arrays": [{"name": n, "shape": list(trained.params[n].shape)}
                   for n in names],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for n in names:
            fh.write(np.ascontiguousarray(trained.params[n], dtype="<f8").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        params = {}
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            arr = np.frombuffer(buf, dtype="<f8", count=count).astype(FLOAT)
            params[spec["name"]] = arr.reshape(shape)
    config = DecoderConfig(**header["config"])
    vocab = Vocabulary(tuple(header["vocab"]))
    norm = NormStats.from_json(header["norm"])
    return TrainedDecoder(params=params, config=config, vocab=vocab, norm=norm)
