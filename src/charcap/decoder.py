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
vector and the previous word embedding. The logits carry no bias: the
softmax is shift-invariant, so a bias would change no output and its
gradient would be exactly 0.

Only what depends on the hidden state is computed per step. The cell
embeddings, their tanh and the cell features (``attention_terms``) are
built once per sentence. Of the LSTM input ``[v_grounded, v_global,
E[w_prev]]`` only ``v_grounded`` comes out of the recurrence, so
``W_lstm`` is split (``_split_lstm``) once per mini-batch or decoded
pair: each step multiplies only the grounded and hidden-state columns and
adds ``W_glob @ v_global + b_lstm + EW[w_prev]``, an input contribution
known before the loop (the input-GEMM hoist of Appleyard, Kočiský and
Blunsom, arXiv 1604.01946).

Training uses teacher forcing with two equally weighted terms: word
cross-entropy at every step, and attention cross-entropy against the
automatic one-hot targets at supervised person-word steps. All gradients
are hand-written and finite-difference checked. The work is split in two.
``sentence_loss`` runs the recurrence only: attention and LSTM forward per
step, then the word loss of all steps at once (under teacher forcing the
output layer is not part of the recurrence), then the LSTM and attention
backward per step. It returns rows: per step, per grid cell and per
current track. ``weight_gradients`` forms every weight's gradient from the
rows of one or more sentences, one product per weight; training calls it
once per mini-batch. ``W_lstm`` stays one stored array.

Checkpoints are a one-line JSON header (magic string, format version,
dims, vocab, array table) followed by raw little-endian float64 blocks,
one per named weight. Format version 2 is version 1 without the
attention logit bias; a version-1 file is rejected by its stamp.
"""

import json
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .corpus import (
    BOS, EOS, P_MAX, PERSON_TOKENS, ClipPair, Corpus, Vocabulary, cap_tracks,
)
from .numerics import (
    Adam, FLOAT, cross_entropy, glorot_uniform, lstm_init, lstm_step_backward,
    lstm_step_forward, masked_softmax, rng_stream, softmax_cross_entropy,
    zeros_like_params,
)
from .track_features import STAT_DIM, NormStats, apply_norm, fit_norm_stats


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


def _param_shapes(config: DecoderConfig, vocab_size):
    """Name -> shape of every decoder weight, in ``init_decoder_params`` order."""
    da, H = config.d_att, config.hidden
    return {
        "E": (vocab_size, config.d_emb),
        "W_lstm": (4 * H, config.d_input + H),
        "b_lstm": (4 * H,),
        "W_id": (da, config.d_head),
        "W_head": (da, config.d_head),
        "W_body": (da, config.d_body),
        "W_stat": (da, STAT_DIM),
        "b_v": (da,),
        "W_h": (da, H),
        "b_h": (da,),
        "w_att": (da,),
        "W_pred": (vocab_size, H),
        "b_pred": (vocab_size,),
    }


def init_decoder_params(config: DecoderConfig, vocab_size, seed):
    """Glorot-uniform weights and zero biases of ``_param_shapes``; the LSTM
    comes from ``lstm_init``."""
    shapes = _param_shapes(config, vocab_size)
    params = {name: np.zeros(shape, dtype=FLOAT) for name, shape in shapes.items()}
    rng = rng_stream(seed, "decoder-init")
    params["W_lstm"], params["b_lstm"] = lstm_init(rng, config.d_input, config.hidden)
    for name in ("E", "W_id", "W_head", "W_body", "W_stat", "W_h", "w_att", "W_pred"):
        params[name] = glorot_uniform(rng, *shapes[name])  # in this draw order
    return params


@dataclass
class PairFeatures:
    """Normalized numeric view of one clip pair, ready for the decoder.

    Feature rows may include padding slots (zero vectors) masked out by
    ``cur_valid``/``prev_valid``; real rows precede padding.
    """
    cur_head: np.ndarray    # (C_slots, d_head)
    cur_body: np.ndarray    # (C_slots, d_body)
    cur_stat: np.ndarray    # (C_slots, STAT_DIM)
    prev_head: np.ndarray   # (P_slots, d_head), excludes the null track
    v_global: np.ndarray
    cur_valid: np.ndarray   # (C_slots,) bool
    prev_valid: np.ndarray  # (P_slots,) bool
    cur_track_ids: list = field(default_factory=list)
    prev_track_ids: list = field(default_factory=list)


def pair_features(pair: ClipPair, prev_grounding, norm: NormStats,
                  config: DecoderConfig):
    """Assemble features for the decoder; previous candidates come from
    ``prev_grounding`` (track_id, char, gender) triples of the pair's
    previous clip."""
    cur = cap_tracks(pair.cur.tracks)
    C = len(cur)
    if C:
        ch = apply_norm(cur, norm, "v_head")
        cb = apply_norm(cur, norm, "v_body")
        cs = apply_norm(cur, norm, "v_stat")
    else:  # a clip without tracks keeps one zero padding slot
        ch = np.zeros((1, config.d_head), dtype=FLOAT)
        cb = np.zeros((1, config.d_body), dtype=FLOAT)
        cs = np.zeros((1, STAT_DIM), dtype=FLOAT)
    prev_tracks = []
    if pair.prev is not None:
        by_id = {t.id: t for t in pair.prev.tracks}
        prev_tracks = [by_id[tid] for tid, _, _ in prev_grounding[:P_MAX] if tid in by_id]
    return PairFeatures(
        cur_head=ch, cur_body=cb, cur_stat=cs,
        prev_head=apply_norm(prev_tracks, norm, "v_head"),
        v_global=np.asarray(pair.cur.v_global, dtype=FLOAT),
        cur_valid=np.arange(len(ch)) < C, prev_valid=np.ones(len(prev_tracks), dtype=bool),
        cur_track_ids=[t.id for t in cur],
        prev_track_ids=[t.id for t in prev_tracks])


# ---------------------------------------------------------------------------
# joint attention step
# ---------------------------------------------------------------------------

class AttentionTerms(NamedTuple):
    """The parts of one pair's attention that do not depend on the hidden
    state; ``attention_terms`` builds them once per sentence."""
    M: np.ndarray      # (P_slots+1, C_slots, d_head) re-identification feature
    f_cur: np.ndarray  # (C_slots, d_att) current-track embedding
    Tf: np.ndarray     # (P_slots+1, C_slots, d_att) tanh(M W_id^T + f_cur + b_v)
    valid: np.ndarray  # (P_slots+1, C_slots) real cells
    cell: np.ndarray   # (P_slots+1, C_slots, d_grounded) concatenated cell features


def attention_terms(params, feats: PairFeatures):
    """Hidden-state-free attention terms of one pair: ``M``, ``f_cur``,
    ``Tf = tanh(F)`` with ``F = M·W_idᵀ + f_cur + b_v``, the ``valid`` cell
    mask and the ``cell`` tensor. Every step of a sentence shares them."""
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

    valid = np.zeros((Ps + 1, Cs), dtype=bool)
    valid[0] = feats.cur_valid
    if Ps:
        valid[1:] = feats.prev_valid[:, None] & feats.cur_valid[None, :]

    cell = np.concatenate([np.broadcast_to(V, (Ps + 1,) + V.shape) for V in (Vh, Vb, Vs)]
                          + [M], axis=2)
    return AttentionTerms(M, f_cur, np.tanh(F), valid, cell)


def attention_step(params, h_prev, feats: PairFeatures, terms=None):
    """One joint attention evaluation.

    Returns (alpha, v_grounded, cache): alpha has shape (P_slots+1,
    C_slots) with exact zeros on padding cells; v_grounded is the
    attention-weighted concatenation [head, body, stat, id] of the
    current-track features with the pairwise re-identification feature.
    ``terms`` is ``attention_terms(params, feats)``, built here when None;
    a caller running several steps of one pair passes it.
    """
    if terms is None:
        terms = attention_terms(params, feats)
    M, f_cur, Tf, valid, cell = terms
    if not valid.any():
        return None, np.zeros(cell.shape[2], dtype=FLOAT), None

    pre_q = params["W_h"] @ h_prev + params["b_h"]
    q = np.tanh(pre_q)
    u = params["w_att"] * q
    logits = (Tf.reshape(-1, Tf.shape[2]) @ u).reshape(valid.shape)
    alpha = masked_softmax(logits, valid)
    v_grounded = alpha.reshape(-1) @ cell.reshape(-1, cell.shape[2])
    cache = (M, Tf, q, pre_q, u, alpha, cell, valid, h_prev, f_cur,
             feats.cur_head, feats.cur_body, feats.cur_stat, logits)
    return alpha, v_grounded, cache


def attention_backward(params, cache, dv_grounded, dlogits_extra):
    """The backward through one attention step, without weight gradients.

    ``dlogits_extra`` carries the attention-loss gradient already at the
    logits (softmax cross-entropy shortcut). Returns (dh_prev, dlogits,
    du, dpre_q): the gradients at the hidden state, at the cell logits, at
    ``u = w_att ∘ q`` and at ``pre_q = W_h h_prev + b_h``, from which
    ``sentence_loss`` builds the rows of ``weight_gradients``.
    """
    Tf, q, _, _, alpha, cell, valid = cache[1:8]

    dalpha = (cell.reshape(-1, cell.shape[2]) @ dv_grounded).reshape(alpha.shape)
    s = float((alpha * dalpha).sum())
    dlogits = alpha * (dalpha - s)
    if dlogits_extra is not None:
        dlogits = dlogits + dlogits_extra
    dlogits = np.where(valid, dlogits, 0.0)

    du = dlogits.reshape(-1) @ Tf.reshape(-1, Tf.shape[2])
    dpre_q = du * params["w_att"] * (1.0 - q * q)
    return params["W_h"].T @ dpre_q, dlogits, du, dpre_q


# ---------------------------------------------------------------------------
# sentence loss (teacher forcing) and the weight gradients
# ---------------------------------------------------------------------------

def _split_lstm(params, config):
    """``W_lstm`` split by what its columns multiply: (W_rec, W_glob, EW).
    ``W_rec`` (4H, d_grounded + H) is a contiguous copy of the grounded
    and hidden-state columns, ``W_glob`` a view of the ``v_global``
    columns, and ``EW`` (V, 4H) the word table ``E @ W_emb^T``."""
    W = params["W_lstm"]
    gr, glob = config.d_grounded, config.d_grounded + config.d_global
    W_rec = np.concatenate([W[:, :gr], W[:, config.d_input:]], axis=1)
    return W_rec, W[:, gr:glob], params["E"] @ W[:, glob:config.d_input].T


def sentence_loss(params, config, vocab, feats: PairFeatures, sentence,
                  alpha_targets=None, split=None):
    """Teacher-forced loss of one clip pair, and the rows its weight
    gradients are formed from.

    ``alpha_targets``: {sentence position tau: (p, c)} with p in 0..P and
    c in 1..C (1-based); targets outside the valid cells of the grid,
    including every target of a pair without a valid cell, are skipped
    and counted. ``split`` is ``_split_lstm(params, config)``, made here
    when None; a caller running several sentences passes it. Returns
    (total, word_loss, att_loss, rows, skipped); ``rows`` (see
    ``weight_gradients``) is None when the word logits are not finite, and
    the word losses are then inf, so that training aborts.
    """
    tokens = [vocab.index(t) for t in [BOS, *sentence, EOS]]
    person_idx = {vocab.index(t) for t in PERSON_TOKENS}
    alpha_targets = alpha_targets or {}
    W_rec, W_glob, EW = _split_lstm(params, config) if split is None else split

    terms = attention_terms(params, feats)
    valid = terms.valid
    words, targets = np.asarray(tokens[:-1]), np.asarray(tokens[1:])
    inputs = W_glob @ feats.v_global + params["b_lstm"] + EW[words]
    T, H = len(words), config.hidden
    h = np.zeros(H, dtype=FLOAT)
    c = np.zeros(H, dtype=FLOAT)
    hs = np.empty((T, H), dtype=FLOAT)
    steps = []
    att_loss = 0.0
    skipped = 0
    for t in range(T):  # step t reads word t and predicts word t + 1 (position tau = t)
        alpha, v_gr, att_cache = attention_step(params, h, feats, terms)
        h, c, lstm_cache = lstm_step_forward(W_rec, inputs[t], v_gr, h, c)
        hs[t] = h
        dlogits_extra = None
        if targets[t] in person_idx and t in alpha_targets:
            p, ci = alpha_targets[t]
            if p < valid.shape[0] and 1 <= ci <= valid.shape[1] and valid[p, ci - 1]:
                att_loss += cross_entropy(att_cache[-1], (p, ci - 1), valid)
                dlogits_extra = alpha.copy()
                dlogits_extra[p, ci - 1] -= 1.0
            else:
                skipped += 1
        steps.append((att_cache, lstm_cache, dlogits_extra))

    logits = hs @ params["W_pred"].T + params["b_pred"]
    if not np.all(np.isfinite(logits)):
        return np.inf, np.inf, att_loss, None, skipped
    dlog, word_losses = softmax_cross_entropy(logits, targets)
    dlog[np.arange(T), targets] -= 1.0
    word_loss = float(word_losses.sum())
    dh_out = dlog @ params["W_pred"]

    da = np.empty((T, 4 * H), dtype=FLOAT)
    # q, du, dpre_q and dlogits stay 0 on a pair without a valid cell
    q = np.zeros((T, config.d_att), dtype=FLOAT)
    du = np.zeros_like(q)
    dpre_q = np.zeros_like(q)
    dlogits = np.zeros((T, valid.size), dtype=FLOAT)
    dh = np.zeros(H, dtype=FLOAT)
    dc = np.zeros(H, dtype=FLOAT)
    for t in range(T - 1, -1, -1):
        att_cache, lstm_cache, dlogits_extra = steps[t]
        # dx is v_grounded's gradient: the recurrent block has no other inputs
        da[t], dx, dh, dc = lstm_step_backward(lstm_cache, dh + dh_out[t], dc)
        if att_cache is not None:
            dh_att, dl, du[t], dpre_q[t] = attention_backward(params, att_cache, dx,
                                                              dlogits_extra)
            dh = dh + dh_att
            dlogits[t] = dl.reshape(-1)
            q[t] = att_cache[2]

    rec = np.stack([cache[1] for _, cache, _ in steps])  # [v_grounded, h_prev] rows
    d_gr = config.d_grounded
    xh = np.concatenate([rec[:, :d_gr], np.broadcast_to(feats.v_global, (T, config.d_global)),
                         params["E"][words], rec[:, d_gr:]], axis=1)
    Tf = terms.Tf.reshape(valid.size, -1)
    dF = (dlogits.T @ (q * params["w_att"])) * (1.0 - Tf * Tf)
    rows = (words, xh, da, hs, dlog, q, du, dpre_q, terms.M.reshape(valid.size, -1), dF,
            feats.cur_head, feats.cur_body, feats.cur_stat, dF.reshape(terms.Tf.shape).sum(axis=0))
    return word_loss + att_loss, word_loss, att_loss, rows, skipped


def weight_gradients(params, config, rows, grads=None):
    """Add the gradients of all 13 weights into ``grads`` (a fresh zero
    dict when None) and return it, one product per weight over the rows of
    the sentences in ``rows``.

    Each sentence's rows are the tuple ``sentence_loss`` returns:
    (words, xh, da, h, dlog, q, du, dpre_q, M, dF, head, body, stat,
    df_cur). Per step: the input word, the LSTM input ``[v_grounded,
    v_global, E[w], h_prev]``, the gradient at the gate pre-activations,
    the hidden state ``h``, ``softmax(word logits) - onehot(target
    word)``, the attention query ``q = tanh(pre_q)`` and the gradients
    ``du`` at ``u = w_att ∘ q`` and ``dpre_q`` at ``pre_q = W_h h_prev +
    b_h`` (``q``, ``du`` and ``dpre_q`` are 0 on a pair without a valid
    cell, so they add nothing). Per grid cell: the re-identification
    feature ``M`` and ``dF = (dlogitsᵀ U) ∘ (1 - Tf²)``, the sentence's
    gradient at ``F = M W_idᵀ + f_cur + b_v``. Per current-track slot: the
    head, body and stat features and ``df_cur``, the gradient at their
    embedding ``f_cur``.
    """
    if grads is None:
        grads = zeros_like_params(params)
    words, xh, da, h, dlog, q, du, dpre_q, M, dF, head, body, stat, df_cur = (
        np.concatenate(part) for part in zip(*rows))
    grads["W_lstm"] += da.T @ xh
    grads["b_lstm"] += da.sum(axis=0)
    emb = slice(config.d_grounded + config.d_global, config.d_input)
    np.add.at(grads["E"], words, da @ params["W_lstm"][:, emb])
    grads["W_pred"] += dlog.T @ h
    grads["b_pred"] += dlog.sum(axis=0)

    grads["w_att"] += (du * q).sum(axis=0)
    grads["W_h"] += dpre_q.T @ xh[:, -config.hidden:]  # h_prev, the LSTM's own input
    grads["b_h"] += dpre_q.sum(axis=0)
    grads["W_id"] += dF.T @ M
    grads["b_v"] += dF.sum(axis=0)
    grads["W_head"] += df_cur.T @ head
    grads["W_body"] += df_cur.T @ body
    grads["W_stat"] += df_cur.T @ stat
    return grads


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
    """``supervision``: iterable of ``corpus.PairSupervision`` (pair_id,
    prev_grounding, AlphaTarget list). The targets are dropped when
    ``config.attention_supervision`` is False."""
    by_pair = {s.pair_id: s for s in supervision} if supervision else {}
    items = []
    for pair in corpus.pairs:
        sup = by_pair.get(pair.id)
        grounding = sup.prev_grounding if sup is not None else []
        feats = pair_features(pair, grounding, norm, config)
        targets = ({t.tau: (t.p, t.c) for t in sup.targets}
                   if sup is not None and config.attention_supervision else {})
        items.append(TrainItem(pair.id, feats, pair.cur.sentence, targets))
    return items


@dataclass
class TrainedDecoder:
    params: dict
    config: DecoderConfig
    vocab: Vocabulary
    norm: NormStats
    history: list = field(default_factory=list)  # (total, word, att) per epoch
    # training counts; not saved in checkpoints
    skipped_targets: int = 0   # attention targets outside the valid grid cells, all epochs
    clipped_batches: int = 0   # batches whose gradients _clip_gradients scaled, all epochs
    capped_tracks: int = 0     # current-clip tracks cap_tracks dropped from the training items


def _batch_gradients(params, config, vocab, batch, grads):
    """Zero ``grads`` in place and add the summed gradients of the
    ``TrainItem``s in ``batch``: ``W_lstm`` is split once for all of them,
    and one ``weight_gradients`` call forms every weight's gradient from
    their rows. Returns each item's (total, word, att) loss and the number
    of skipped targets."""
    for g in grads.values():
        g.fill(0.0)
    split = _split_lstm(params, config)
    losses = []
    rows = []
    skipped = 0
    for item in batch:
        t, w, a, r, s = sentence_loss(params, config, vocab, item.feats, item.sentence,
                                      item.alpha_targets, split)
        losses.append((t, w, a))
        skipped += s
        if r is not None:  # None when the sentence's loss went non-finite
            rows.append(r)
    if rows:
        weight_gradients(params, config, rows, grads)
    return losses, skipped


def _clip_gradients(grads, max_norm):
    """Scale ``grads`` to global norm ``max_norm`` when above it (0 or None
    switches clipping off); returns whether it scaled."""
    if not max_norm:
        return False
    total = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for k in grads:
            grads[k] *= scale
        return True
    return False


def train_decoder(corpus: Corpus, supervision, config: DecoderConfig,
                  seed=0, norm=None):
    """Mini-batch training with teacher forcing; deterministic per seed.

    Attention supervision is dropped when config.attention_supervision is
    False (the words-only ablation). Raises ValueError when a corpus
    vector is not as wide as ``config`` says, and TrainingDiverged with the
    last finite-loss parameters if the loss or a weight goes non-finite.
    """
    for clip in corpus.clips:
        for name, v in [("v_global", clip.v_global)] + [
                (n, getattr(t, n)) for t in clip.tracks for n in ("v_head", "v_body")]:
            dim = "d_" + name[2:]
            if len(v) != getattr(config, dim):
                raise ValueError(f"train_decoder: corpus {name} width {len(v)} differs "
                                 f"from DecoderConfig.{dim} = {getattr(config, dim)}")
    if norm is None:
        norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks])
    items = build_train_items(corpus, supervision, norm, config)
    vocab = corpus.vocab
    params = init_decoder_params(config, len(vocab), seed)
    opt = Adam(lr=config.lr)
    rng = rng_stream(seed, "decoder-train")
    capped = sum(len(pair.cur.tracks) - len(item.feats.cur_track_ids)
                 for pair, item in zip(corpus.pairs, items))
    trained = TrainedDecoder(params=params, config=config, vocab=vocab,
                             norm=norm, history=[], capped_tracks=capped)
    last_good = {k: v.copy() for k, v in params.items()}
    grads = zeros_like_params(params)

    bs = config.batch_size or len(items)
    for epoch in range(config.epochs):
        order = rng.permutation(len(items))
        tot = wl = al = 0.0
        for start in range(0, len(order), bs):
            batch = order[start:start + bs]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                losses, skipped = _batch_gradients(
                    params, config, vocab, [items[i] for i in batch], grads)
            for t, w, a in losses:
                tot += t
                wl += w
                al += a
            trained.skipped_targets += skipped
            for k in grads:
                grads[k] /= len(batch)
            trained.clipped_batches += _clip_gradients(grads, config.grad_clip)
            opt.step(params, grads)
        n = len(items)
        epoch_loss = tot / n
        finite = np.isfinite(epoch_loss) and all(
            np.all(np.isfinite(v)) for v in params.values())
        if not finite:
            raise TrainingDiverged(epoch, last_good)
        trained.history.append((epoch_loss, wl / n, al / n))
        last_good = {k: v.copy() for k, v in params.items()}
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
    params, config, vocab = trained.params, trained.config, trained.vocab
    feats = pair_features(pair, prev_grounding, trained.norm, config)
    terms = attention_terms(params, feats)
    W_rec, W_glob, EW = _split_lstm(params, config)
    base = W_glob @ feats.v_global + params["b_lstm"]
    h = np.zeros(config.hidden, dtype=FLOAT)
    c = np.zeros(config.hidden, dtype=FLOAT)
    w_prev = vocab.index(BOS)
    eos = vocab.index(EOS)
    tokens = []
    predictions = []
    alphas = []
    for _ in range(config.max_len):
        alpha, v_gr, _ = attention_step(params, h, feats, terms)
        h, c, _ = lstm_step_forward(W_rec, base + EW[w_prev], v_gr, h, c)
        w = int(np.argmax(params["W_pred"] @ h + params["b_pred"]))
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

CHECKPOINT_MAGIC = "charcap-decoder"
CHECKPOINT_VERSION = 2


def save_checkpoint(path, trained: TrainedDecoder):
    names = sorted(trained.params)
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
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


def _is_shape(shape):
    return isinstance(shape, list) and all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)


def _header_contents(path, header):
    """Config, vocabulary, norm and array table of a checkpoint header whose
    magic string and version are checked; the table must name exactly the
    weights ``init_decoder_params`` builds for that config and vocabulary,
    with their shapes."""
    missing = [k for k in ("config", "vocab", "norm", "arrays") if k not in header]
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {missing}")
    cfg, vocab, arrays = header["config"], header["vocab"], header["arrays"]
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: checkpoint config is not a JSON object")
    unknown = sorted(set(cfg) - {f.name for f in fields(DecoderConfig)})
    if unknown:
        raise ValueError(f"{path}: config keys {unknown} are not DecoderConfig settings")
    if not (isinstance(vocab, list) and all(isinstance(t, str) for t in vocab)):
        raise ValueError(f"{path}: checkpoint vocab is not a list of strings")
    try:
        norm = NormStats.from_json(header["norm"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: checkpoint norm is malformed: {exc!r}") from None
    config = DecoderConfig(**cfg)
    try:
        expected = _param_shapes(config, len(vocab))
    except TypeError as exc:
        raise ValueError(f"{path}: config {cfg} gives no weight shapes: {exc}") from None
    if not isinstance(arrays, list):
        raise ValueError(f"{path}: checkpoint arrays is not a list")
    table = {}
    for spec in arrays:
        name = spec.get("name") if isinstance(spec, dict) else None
        shape = spec.get("shape") if isinstance(spec, dict) else None
        if not isinstance(name, str) or name not in expected or name in table:
            raise ValueError(f"{path}: array {name!r} is not a decoder weight or repeats")
        if not _is_shape(shape):
            raise ValueError(f"{path}: array {name!r} has shape {shape!r}, "
                             "not a list of non-negative integers")
        if tuple(shape) != expected[name]:
            raise ValueError(f"{path}: array {name!r} has shape {tuple(shape)}, "
                             f"the config gives {expected[name]}")
        table[name] = tuple(shape)
    absent = sorted(set(expected) - set(table))
    if absent:
        raise ValueError(f"{path}: arrays {absent} are missing")
    return config, Vocabulary(tuple(vocab)), norm, table


def load_checkpoint(path):
    """Inverse of ``save_checkpoint``. A malformed header, a missing magic
    string or version, an unknown version, a missing config, vocab, norm or
    array table, config keys ``DecoderConfig`` does not know, an array
    table that does not match the weights of that config and vocabulary
    (names and integer shapes), a short array block or trailing bytes raise
    ValueError naming the file."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: checkpoint header is not JSON: {exc}") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header is not a JSON object")
        stamp = (header.get("magic"), header.get("version"))
        if stamp != (CHECKPOINT_MAGIC, CHECKPOINT_VERSION):
            raise ValueError(f"{path}: not a version-{CHECKPOINT_VERSION} charcap decoder "
                             f"checkpoint (magic string {stamp[0]!r}, format version {stamp[1]!r})")
        config, vocab, norm, table = _header_contents(path, header)
        params = {}
        for name, shape in table.items():
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: array {name!r} needs {count * 8} "
                                 f"bytes, the file holds {len(buf)}")
            arr = np.frombuffer(buf, dtype="<f8", count=count).astype(FLOAT)
            params[name] = arr.reshape(shape)
        if fh.read(1):
            raise ValueError(f"{path}: bytes left over after the last array")
    return TrainedDecoder(params=params, config=config, vocab=vocab, norm=norm)
