"""Sentence decoder with joint attention over (previous, current) tracks.

At every step the decoder scores each cell of a (P+1) x C grid: previous
tracks of the pair (slot 0 is the null track, meaning "new character")
against current tracks, at most ``C_MAX`` and ``P_MAX`` (this module
alone knows these limits). Per cell, a re-identification feature is the
element-wise product of the two head vectors (a constant -1 vector for
the null track), embedded together with the current track's head, body,
and statistics features; the cell logit multiplies that embedding
element-wise with an embedding of the recurrent hidden state.
``masked_softmax`` over real cells gives the attention, whose weighted
sum of concatenated cell features is the grounded input to the LSTM,
next to the global clip vector and the previous word embedding. The
logits carry no bias: the softmax is shift-invariant, so a bias would
change no output and its gradient would be exactly 0.

Only what depends on the hidden state is computed per step: the cell
embeddings, their tanh and the cell features (``attention_terms``) are
built once per sentence or mini-batch, and ``W_lstm`` is split
(``_split_lstm``) so that a step multiplies only its grounded and
hidden-state columns and adds ``W_glob @ v_global + b_lstm + EW[w_prev]``,
known before the loop (the input-GEMM hoist of Appleyard, Kočiský and
Blunsom, arXiv 1604.01946).

Training uses teacher forcing with two equally weighted terms: word
cross-entropy at every step, and attention cross-entropy against the
automatic one-hot targets at supervised person-word steps, all of a
mini-batch's in one ``softmax_cross_entropy`` call after the forward
loop; ``build_train_items`` places them on each pair's grid. All
gradients are hand-written and finite-difference checked. Training runs
the linker's loop, ``numerics.train_minibatches``, clipping gradients to
``grad_clip``; each item's (total, word, att) losses are one loss row.
``sentence_loss`` runs a mini-batch as one recurrence over ``(B, ·)``
rows, one attention step and one LSTM step per time step (the batching
half of the same paper). Each pair's grid is padded (``pad_rows``) to the
batch's largest ``(P+1, C)`` with invalid slots and each sentence to the
longest with masked steps, which have no loss, so their backward is
exactly zero; a grid without a valid cell gets zero attention and
grounded vector. One pair is the same code without the batch axis.
``sentence_loss`` also adds each weight's gradient, one product over the
items' real steps, valid grid cells and valid current-track slots, item
after item: padding is dropped.

The feature widths come from the data, as in the linker: ``d_head``,
``d_body`` and ``d_stat`` are the widths of the norm fitted on the
training tracks, ``d_global`` that of the clips' ``v_global``;
``DecoderConfig`` holds only training choices. Every function that holds
the weights or the features reads the widths off them.

A checkpoint (format version 4) is a one-line JSON header followed by
one little-endian float64 vector, and states each fact once. The header
holds the magic string, the version, the config, the vocabulary and the
four widths; from these alone the loader works out the vector's layout
(``_checkpoint_arrays``): the 13 weights in ``_param_shapes`` order, then
each norm block's mean and std. The loader reads the vector in one call,
and every loaded array is a view of it. Version 3 listed the arrays in
the header and wrote the norm as JSON, version 2 repeated the widths in
the config and version 1 had an attention logit bias; a file of any of
them is rejected by its stamp.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .corpus import BOS, EOS, PERSON_TOKENS, ClipPair, Corpus, Vocabulary
from .numerics import (
    FLOAT, TrainingDiverged, _is_number, check_config, glorot_uniform, lstm_init,
    lstm_step_backward, lstm_step_forward, masked_softmax, pad_rows, rng_stream,
    softmax_cross_entropy, train_minibatches,
)
from .track_features import NormStats, apply_norm, fit_norm_stats

C_MAX = 50  # current tracks of a grid: the longest, id breaking ties
P_MAX = 7   # previous-track candidates in addition to the null track


@dataclass
class DecoderConfig:
    d_att: int = 64
    d_emb: int = 64
    hidden: int = 128
    max_len: int = 30
    lr: float = 0.003
    epochs: int = 30
    batch_size: int = 8
    grad_clip: float = 5.0


def _check_config(where, config: DecoderConfig):
    """``check_config`` with the decoder's bounds: ``d_emb >= 0`` and
    ``d_att``, ``hidden`` and ``max_len`` at least 1. Training and loading
    run it, so a config that trains also loads."""
    check_config(where, config, (("d_att", 1), ("d_emb", 0), ("hidden", 1), ("max_len", 1)))


def _param_shapes(config: DecoderConfig, vocab_size, d_head, d_body, d_stat, d_global):
    """Name -> shape of every decoder weight, in ``init_decoder_params`` order."""
    da, H = config.d_att, config.hidden
    d_input = 2 * d_head + d_body + d_stat + d_global + config.d_emb
    return {
        "E": (vocab_size, config.d_emb),
        "W_lstm": (4 * H, d_input + H),
        "b_lstm": (4 * H,),
        "W_id": (da, d_head),
        "W_head": (da, d_head),
        "W_body": (da, d_body),
        "W_stat": (da, d_stat),
        "b_v": (da,),
        "W_h": (da, H),
        "b_h": (da,),
        "w_att": (da,),
        "W_pred": (vocab_size, H),
        "b_pred": (vocab_size,),
    }


def init_decoder_params(config: DecoderConfig, vocab_size, d_head, d_body, d_stat, d_global,
                        seed):
    """Glorot-uniform weights and zero biases of ``_param_shapes``; the LSTM
    comes from ``lstm_init``."""
    shapes = _param_shapes(config, vocab_size, d_head, d_body, d_stat, d_global)
    params = {name: np.zeros(shape, dtype=FLOAT) for name, shape in shapes.items()}
    rng = rng_stream(seed, "decoder-init")
    H = config.hidden
    params["W_lstm"], params["b_lstm"] = lstm_init(rng, shapes["W_lstm"][1] - H, H)
    for name in ("E", "W_id", "W_head", "W_body", "W_stat", "W_h", "w_att", "W_pred"):
        params[name] = glorot_uniform(rng, *shapes[name])  # in this draw order
    return params


@dataclass
class PairFeatures:
    """Normalized numeric view of one clip pair, ready for the decoder,
    or of a mini-batch of pairs with a leading batch axis on every array.

    Feature rows may include padding slots (zero vectors) masked out by
    ``cur_valid``/``prev_valid``; real rows precede padding.
    """
    cur_head: np.ndarray    # (C_slots, d_head)
    cur_body: np.ndarray    # (C_slots, d_body)
    cur_stat: np.ndarray    # (C_slots, d_stat)
    prev_head: np.ndarray   # (P_slots, d_head), excludes the null track
    v_global: np.ndarray
    cur_valid: np.ndarray   # (C_slots,) bool
    prev_valid: np.ndarray  # (P_slots,) bool
    cur_track_ids: list = field(default_factory=list)
    prev_track_ids: list = field(default_factory=list)


def pair_features(pair: ClipPair, prev_grounding, norm: NormStats, config=None):
    """Assemble features for the decoder. The current tracks are the
    clip's, in order, or its ``C_MAX`` longest (id breaking ties) when it
    has more; the previous candidates are the tracks of the first
    ``P_MAX`` ``prev_grounding`` (track_id, char, gender) triples;
    ``config`` is not read. Raises ValueError when a grounding track is
    not in the pair's previous clip."""
    cur = pair.cur.tracks
    if len(cur) > C_MAX:
        cur = sorted(cur, key=lambda t: (-len(t.detections), t.id))[:C_MAX]
    C = len(cur)
    if C:
        ch = apply_norm(cur, norm, "v_head")
        cb = apply_norm(cur, norm, "v_body")
        cs = apply_norm(cur, norm, "v_stat")
    else:  # a clip without tracks keeps one zero padding slot
        ch, cb, cs = (np.zeros((1, len(norm.mean[blk])), dtype=FLOAT) for blk in NormStats.BLOCKS)
    by_id = {t.id: t for t in pair.prev.tracks} if pair.prev is not None else {}
    for tid, _, _ in prev_grounding:
        if tid not in by_id:
            raise ValueError(f"pair {pair.id}: previous-grounding track {tid!r} "
                             "is not in the previous clip")
    prev_tracks = [by_id[tid] for tid, _, _ in prev_grounding[:P_MAX]]
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
    """The parts of the attention that do not depend on the hidden state,
    after the batch axis of a mini-batch's ``PairFeatures``, if any."""
    M: np.ndarray      # (P_slots+1, C_slots, d_head) re-identification feature
    Tf: np.ndarray     # (P_slots+1, C_slots, d_att) tanh(M W_id^T + f_cur + b_v)
    valid: np.ndarray  # (P_slots+1, C_slots) real cells
    cell: np.ndarray   # (P_slots+1, C_slots, d_grounded) concatenated cell features


def attention_terms(params, feats: PairFeatures):
    """Hidden-state-free attention terms of one pair, or of a batch when
    ``feats`` has a leading batch axis: ``M``, ``Tf = tanh(F)`` with ``F =
    M·W_idᵀ + f_cur + b_v`` (``f_cur`` the current-track embedding), the
    ``valid`` cell mask and the ``cell`` tensor. Every step of a sentence
    shares them."""
    Vh, Vb, Vs, Hp = feats.cur_head, feats.cur_body, feats.cur_stat, feats.prev_head
    grid = Vh.shape[:-2] + (Hp.shape[-2] + 1, Vh.shape[-2])

    # cell (0, c) is the null previous track: constant -1 vector
    M = np.empty(grid + Vh.shape[-1:], dtype=FLOAT)
    M[..., 0, :, :] = -1.0
    M[..., 1:, :, :] = Hp[..., :, None, :] * Vh[..., None, :, :]

    f_cur = Vh @ params["W_head"].T + Vb @ params["W_body"].T + Vs @ params["W_stat"].T
    Tf = M @ params["W_id"].T
    Tf += f_cur[..., None, :, :]
    Tf += params["b_v"]
    np.tanh(Tf, out=Tf)

    valid = np.empty(grid, dtype=bool)
    valid[..., 0, :] = feats.cur_valid
    valid[..., 1:, :] = feats.prev_valid[..., :, None] & feats.cur_valid[..., None, :]

    cell = np.concatenate([np.broadcast_to(V[..., None, :, :], grid + V.shape[-1:])
                           for V in (Vh, Vb, Vs)] + [M], axis=-1)
    return AttentionTerms(M, Tf, valid, cell)


def attention_step(params, h_prev, feats: PairFeatures, terms=None):
    """One joint attention evaluation of one pair (``h_prev`` 1-D), or of
    a batch (``h_prev`` rows, ``feats`` with a leading batch axis).

    Returns (alpha, v_grounded, cache): alpha is each (P_slots+1, C_slots)
    grid's attention, the ``masked_softmax`` of the flattened grid's
    logits over its valid cells, so exactly 0 on padding cells and on a
    grid without a valid cell; v_grounded is the attention-weighted
    concatenation [head, body, stat, id] of the current-track and
    re-identification features. ``cache`` is (Tf, q, alpha, cell, valid,
    logits): what ``attention_backward`` reads, and the logits of the
    attention loss. ``terms`` is ``attention_terms(params, feats)``, built
    here when None; a caller running several steps passes it.
    """
    _, Tf, valid, cell = attention_terms(params, feats) if terms is None else terms
    lead = valid.shape[:-2]

    pre_q = h_prev @ params["W_h"].T + params["b_h"]
    q = np.tanh(pre_q)
    u = params["w_att"] * q
    logits = (Tf.reshape(lead + (-1, Tf.shape[-1])) @ u[..., None]).reshape(valid.shape)
    alpha = masked_softmax(logits.reshape(lead + (-1,)), valid.reshape(lead + (-1,)))
    v_grounded = (alpha[..., None, :] @ cell.reshape(lead + (-1, cell.shape[-1])))[..., 0, :]
    alpha = alpha.reshape(valid.shape)
    return alpha, v_grounded, (Tf, q, alpha, cell, valid, logits)


def attention_backward(params, cache, dv_grounded, dlogits_extra):
    """The backward through one attention step (of one pair or a batch,
    as it ran), without weight gradients. ``dlogits_extra`` is the
    attention-loss gradient already at the logits (zeros on a step without
    supervision). Returns (dh_prev, dlogits, du, dpre_q): the gradients at
    the hidden state, at the cell logits, at ``u = w_att ∘ q`` and at
    ``pre_q = W_h h_prev + b_h``, from which ``sentence_loss`` forms the
    weight gradients.
    """
    Tf, q, alpha, cell, valid, _ = cache
    lead = valid.shape[:-2]

    dalpha = (cell.reshape(lead + (-1, cell.shape[-1])) @ dv_grounded[..., None]
              ).reshape(alpha.shape)
    s = (alpha * dalpha).reshape(lead + (-1,)).sum(axis=-1)
    dlogits = alpha * (dalpha - s[..., None, None]) + dlogits_extra
    dlogits = np.where(valid, dlogits, 0.0)

    du = (dlogits.reshape(lead + (1, -1)) @ Tf.reshape(lead + (-1, Tf.shape[-1])))[..., 0, :]
    dpre_q = du * params["w_att"] * (1.0 - q * q)
    return dpre_q @ params["W_h"], dlogits, du, dpre_q


# ---------------------------------------------------------------------------
# sentence loss (teacher forcing) and the weight gradients
# ---------------------------------------------------------------------------

def _split_lstm(params):
    """``W_lstm`` split by what its columns multiply: (W_rec, W_glob, EW),
    the widths read off the weights. ``W_rec`` (4H, d_grounded + H) is a
    contiguous copy of the grounded and hidden-state columns, ``W_glob`` a
    view of the ``v_global`` columns, and ``EW`` (V, 4H) the word table
    ``E @ W_emb^T``."""
    W, H = params["W_lstm"], params["W_h"].shape[1]
    gr = 2 * params["W_head"].shape[1] + params["W_body"].shape[1] + params["W_stat"].shape[1]
    glob = W.shape[1] - H - params["E"].shape[1]
    W_rec = np.concatenate([W[:, :gr], W[:, -H:]], axis=1)
    return W_rec, W[:, gr:glob], params["E"] @ W[:, glob:-H].T


def sentence_loss(params, config, vocab, batch, grads):
    """Teacher-forced loss of a mini-batch of ``TrainItem``s, run as one
    recurrence over ``(B, ·)`` rows; adds the gradients of all 13 weights
    into ``grads``.

    An item's ``alpha_targets`` map sentence position tau to (p, c), p in
    0..P and c in 1..C (1-based). A target is skipped and counted when tau
    is not a person word of the sentence or (p, c) not a valid cell, as on
    a pair without one. Returns (total, word_loss, att_loss, grads,
    skipped): the first three are lists with one float per item. When a
    word logit is not finite, every word loss is inf, so that training
    aborts, and ``grads`` is left untouched.
    """
    B, H = len(batch), config.hidden
    # one PairFeatures with a batch axis; each pair's slots padded with invalid zero slots
    feats = PairFeatures(v_global=np.stack([item.feats.v_global for item in batch]), **{
        name: pad_rows([getattr(item.feats, name) for item in batch])[0] for name in (
            "cur_head", "cur_body", "cur_stat", "cur_valid", "prev_head", "prev_valid")})
    terms = attention_terms(params, feats)
    valid = terms.valid
    W_rec, W_glob, EW = _split_lstm(params)

    # sentences padded with EOS to the longest; steps past an item's end are masked
    lens = np.array([len(item.sentence) + 1 for item in batch])
    T = int(lens.max())
    real = np.arange(T) < lens[:, None]  # (B, T)
    tokens = np.full((B, T + 1), vocab.index(EOS))
    tokens[np.arange(T + 1) <= lens[:, None]] = [
        vocab.index(t) for item in batch for t in [BOS, *item.sentence, EOS]]
    words, targets = tokens[:, :-1], tokens[:, 1:]

    person_idx = {vocab.index(t) for t in PERSON_TOKENS}
    P1, C = valid.shape[1:]
    # (tau, b, flat cell) of the targets on a person word and a valid cell, step by step
    sup_t, sup_b, sup_cell = np.array(sorted(
        (tau, b, p * C + ci - 1) for b, item in enumerate(batch)
        for tau, (p, ci) in item.alpha_targets.items()
        if 0 <= tau < lens[b] and targets[b, tau] in person_idx
        and 0 <= p < P1 and 1 <= ci <= C and valid[b, p, ci - 1]), dtype=int).reshape(-1, 3).T
    skipped = sum(len(item.alpha_targets) for item in batch) - len(sup_t)

    inputs = (feats.v_global @ W_glob.T + params["b_lstm"])[:, None, :] + EW[words]
    h = c = np.zeros((B, H), dtype=FLOAT)
    hs = np.empty((B, T, H), dtype=FLOAT)
    steps = []
    for t in range(T):  # step t reads word t and predicts word t + 1 (position tau = t)
        _, v_gr, att_cache = attention_step(params, h, feats, terms)
        h, c, lstm_cache = lstm_step_forward(W_rec, inputs[:, t], v_gr, h, c)
        hs[:, t] = h
        steps.append((att_cache, lstm_cache))

    # every supervised step's attention loss in one call; its probabilities
    # are bitwise the steps' alpha (see masked_softmax)
    att_logits = np.stack([att_cache[-1] for att_cache, _ in steps]).reshape(T, B, -1)
    probs, losses = softmax_cross_entropy(att_logits[sup_t, sup_b], sup_cell,
                                          valid.reshape(B, -1)[sup_b])
    probs[np.arange(len(sup_t)), sup_cell] -= 1.0
    dlogits_extra = np.zeros((T,) + valid.shape, dtype=FLOAT)
    dlogits_extra.reshape(T, B, -1)[sup_t, sup_b] = probs  # through a view
    att_loss = [float(losses[sup_b == b].sum()) for b in range(B)]

    logits = hs[real] @ params["W_pred"].T + params["b_pred"]
    if not np.all(np.isfinite(logits)):
        return [np.inf] * B, [np.inf] * B, att_loss, grads, skipped
    step_targets = targets[real]
    dlog, word_losses = softmax_cross_entropy(logits, step_targets)
    dlog[np.arange(len(step_targets)), step_targets] -= 1.0
    word_loss = [float(x.sum()) for x in np.split(word_losses, np.cumsum(lens)[:-1])]
    dh_out = np.zeros((B, T, H), dtype=FLOAT)
    dh_out[real] = dlog @ params["W_pred"]

    back = []
    dh = dc = np.zeros((B, H), dtype=FLOAT)
    for t in range(T - 1, -1, -1):
        att_cache, lstm_cache = steps[t]
        # dx is v_grounded's gradient: the recurrent block has no other inputs
        da, dx, dh, dc = lstm_step_backward(lstm_cache, dh + dh_out[:, t], dc)
        dh_att, dlogits, du, dpre_q = attention_backward(params, att_cache, dx, dlogits_extra[t])
        dh = dh + dh_att
        back.append((da, dlogits, du, dpre_q, att_cache[1], lstm_cache[1]))
    da, dlogits, du, dpre_q, q, rec = (np.stack(x[::-1], axis=1) for x in zip(*back))
    # nothing below reads the cell tensor, the step caches or W_rec: freeing
    # them before the products lowers the batch's peak memory
    M, Tf = terms.M, terms.Tf
    del terms, steps, att_cache, lstm_cache, W_rec

    # one product per weight over the real steps, valid cells and valid current
    # tracks, item-major; padded steps and cells hold exact zeros and are dropped.
    # xh is the LSTM input [v_grounded, v_global, E[w], h_prev] of each step
    words, da, rec, d_gr = words[real], da[real], rec[real], rec.shape[-1] - H
    xh = np.concatenate([rec[:, :d_gr], np.repeat(feats.v_global, lens, axis=0),
                         params["E"][words], rec[:, d_gr:]], axis=1)
    # dF is the gradient at F = M W_id^T + f_cur + b_v, per cell
    dF = (dlogits.reshape(B, T, -1).transpose(0, 2, 1) @ (q * params["w_att"])).reshape(Tf.shape)
    dF *= 1.0 - Tf * Tf
    q, du, dpre_q = q[real], du[real], dpre_q[real]
    grads["W_lstm"] += da.T @ xh
    grads["b_lstm"] += da.sum(axis=0)
    emb = slice(d_gr + feats.v_global.shape[-1], -H)
    np.add.at(grads["E"], words, da @ params["W_lstm"][:, emb])
    grads["W_pred"] += dlog.T @ hs[real]
    grads["b_pred"] += dlog.sum(axis=0)

    grads["w_att"] += (du * q).sum(axis=0)
    grads["W_h"] += dpre_q.T @ xh[:, -H:]  # h_prev, the LSTM's own input
    grads["b_h"] += dpre_q.sum(axis=0)
    cur = feats.cur_valid
    df_cur = dF.sum(axis=1)[cur]  # the gradient at f_cur, per valid current track
    dF, M = dF[valid], M[valid]
    grads["W_id"] += dF.T @ M
    grads["b_v"] += dF.sum(axis=0)
    grads["W_head"] += df_cur.T @ feats.cur_head[cur]
    grads["W_body"] += df_cur.T @ feats.cur_body[cur]
    grads["W_stat"] += df_cur.T @ feats.cur_stat[cur]
    total = [w + a for w, a in zip(word_loss, att_loss)]
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


def build_train_items(corpus: Corpus, supervision, norm):
    """``supervision``: iterable of ``corpus.PairSupervision``. Each link
    (mention, track_id) targets a cell of its pair's grid: ``c`` is the
    track's 1-based index in ``cur_track_ids``, and ``p`` the slot of the
    mention's ``coref_prev`` character among ``prev_grounding[:P_MAX]``
    (1-based), else the null slot 0. A link to a track the cap dropped
    gives no target; supervision without links (the words-only arm) gives
    none at all. Raises ValueError when a link's track is not in the
    pair's current clip."""
    by_pair = {s.pair_id: s for s in supervision} if supervision else {}
    items = []
    for pair in corpus.pairs:
        sup = by_pair.get(pair.id)
        grounding = sup.prev_grounding if sup is not None else []
        feats = pair_features(pair, grounding, norm)
        targets = {}
        if sup is not None:
            cur_ids = {t.id for t in pair.cur.tracks}
            for _, tid in sup.links:
                if tid not in cur_ids:
                    raise ValueError(f"pair {pair.id}: linked track {tid!r} "
                                     "is not in the current clip")
            slot = {char: i + 1 for i, (_, char, _) in enumerate(grounding[:P_MAX])}
            index = {tid: i + 1 for i, tid in enumerate(feats.cur_track_ids)}
            targets = {m.pos: (slot.get(m.coref_prev, 0), index[tid])
                       for m, tid in sup.links if tid in index}
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
    skipped_targets: int = 0   # attention targets sentence_loss skipped, all epochs
    clipped_batches: int = 0   # batches whose gradients were clipped, all epochs
    capped_tracks: int = 0     # current-clip tracks past C_MAX, left out of the training items


def train_decoder(corpus: Corpus, supervision, config: DecoderConfig, seed=0):
    """Mini-batch training with teacher forcing; deterministic per seed.

    The feature widths are the data's: ``d_head``, ``d_body`` and
    ``d_stat`` those of the norm fitted on the corpus's tracks,
    ``d_global`` that of its clips' ``v_global``. Supervision without
    links trains the words alone (the words-only arm). Raises ValueError when a config field is of the wrong
    type or out of range (``_check_config``), a track's block is not as
    wide as the first track's (``fit_norm_stats``) or a clip's
    ``v_global`` not as wide as the first clip's, and TrainingDiverged
    with the last finite-loss parameters if the loss or a weight goes
    non-finite.
    """
    _check_config("train_decoder", config)
    norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks])
    d_global = len(corpus.clips[0].v_global)
    for clip in corpus.clips:
        if len(clip.v_global) != d_global:
            raise ValueError(f"train_decoder: clip {clip.id} has a {len(clip.v_global)}-wide "
                             f"v_global, the first clip's is {d_global} wide")
    items = build_train_items(corpus, supervision, norm)
    vocab = corpus.vocab
    capped = sum(len(pair.cur.tracks) - len(item.feats.cur_track_ids)
                 for pair, item in zip(corpus.pairs, items))
    skipped = []  # per batch

    def batch_loss(params, idx, grads):
        *rows, _, n = sentence_loss(params, config, vocab, [items[i] for i in idx], grads)
        skipped.append(n)
        return zip(*rows)  # (total, word, att) per item

    params, history, clipped = train_minibatches(init_decoder_params(
        config, len(vocab), *(len(norm.mean[blk]) for blk in NormStats.BLOCKS), d_global, seed),
        len(items), batch_loss, config, rng_stream(seed, "decoder-train"), config.grad_clip)
    return TrainedDecoder(params, config, vocab, norm, history, skipped_targets=sum(skipped),
                          clipped_batches=clipped, capped_tracks=capped)


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
    grounding and co-reference. Raises ValueError when the pair's vectors
    are not as wide as the trained decoder's.
    """
    params, config, vocab = trained.params, trained.config, trained.vocab
    feats = pair_features(pair, prev_grounding, trained.norm)
    W_rec, W_glob, EW = _split_lstm(params)
    if len(feats.v_global) != W_glob.shape[1]:
        raise ValueError(f"decode_pair: pair {pair.id} has a {len(feats.v_global)}-wide "
                         f"v_global, the decoder's is {W_glob.shape[1]} wide")
    terms = attention_terms(params, feats)
    base = W_glob @ feats.v_global + params["b_lstm"]
    h = c = np.zeros(config.hidden, dtype=FLOAT)
    grounded = terms.valid.any()
    w_prev = vocab.index(BOS)
    eos = vocab.index(EOS)
    tokens, predictions, alphas = [], [], []
    for _ in range(config.max_len):
        alpha, v_gr, _ = attention_step(params, h, feats, terms)
        h, c, _ = lstm_step_forward(W_rec, base + EW[w_prev], v_gr, h, c)
        w = int(np.argmax(params["W_pred"] @ h + params["b_pred"]))
        if w == eos:
            break
        word = vocab.tokens[w]
        if word in PERSON_TOKENS and grounded:
            p, ci = np.unravel_index(int(np.argmax(alpha)), alpha.shape)
            predictions.append(GroundingPrediction(
                tau=len(tokens), word=word, c_track=feats.cur_track_ids[ci],
                p_track=0 if p == 0 else feats.prev_track_ids[p - 1], cell=(int(p), int(ci) + 1)))
        tokens.append(word)
        alphas.append(alpha)
        w_prev = w
    return DecodedClip(pair_id=pair.id, tokens=tokens,
                       predictions=predictions, alphas=alphas)


# ---------------------------------------------------------------------------
# checkpoints: JSON header line + one little-endian float64 vector
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "charcap-decoder"
CHECKPOINT_VERSION = 4
_WIDTHS = ("d_head", "d_body", "d_stat", "d_global")


def _checkpoint_arrays(config, vocab_size, d_head, d_body, d_stat, d_global):
    """Name -> shape of every array of a checkpoint's vector, in file order:
    the weights of ``_param_shapes``, then each norm block's mean and std."""
    shapes = _param_shapes(config, vocab_size, d_head, d_body, d_stat, d_global)
    for blk, d in zip(NormStats.BLOCKS, (d_head, d_body, d_stat)):
        shapes[f"{blk}_mean"] = shapes[f"{blk}_std"] = (d,)
    return shapes


def save_checkpoint(path, trained: TrainedDecoder):
    params, norm = trained.params, trained.norm
    d_head, d_body, d_stat = (params[n].shape[1] for n in ("W_head", "W_body", "W_stat"))
    widths = (d_head, d_body, d_stat, params["W_lstm"].shape[1] - 2 * d_head - d_body - d_stat
              - params["E"].shape[1] - trained.config.hidden)
    header = {"magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION,
              "config": asdict(trained.config), "vocab": list(trained.vocab.tokens),
              **dict(zip(_WIDTHS, widths))}
    stored = {**params, **{f"{blk}_{part}": getattr(norm, part)[blk]
                           for blk in NormStats.BLOCKS for part in ("mean", "std")}}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in _checkpoint_arrays(trained.config, len(trained.vocab), *widths):
            fh.write(np.ascontiguousarray(stored[name], dtype="<f8").tobytes())


def _header_contents(path, header):
    """Config, vocabulary and widths of a checkpoint header whose magic
    string and version are checked. The config must pass ``_check_config``,
    each width be a non-negative integer and the vocabulary keep
    ``Vocabulary``'s rules."""
    missing = [k for k in ("config", "vocab", *_WIDTHS) if k not in header]
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {missing}")
    cfg, vocab = header["config"], header["vocab"]
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: checkpoint config is not a JSON object")
    unknown = sorted(set(cfg) - {f.name for f in fields(DecoderConfig)})
    if unknown:
        raise ValueError(f"{path}: config keys {unknown} are not DecoderConfig settings")
    config = DecoderConfig(**cfg)
    _check_config(f"{path}: checkpoint config", config)
    for k in _WIDTHS:
        if not (_is_number(header[k], int) and header[k] >= 0):
            raise ValueError(f"{path}: checkpoint {k} = {header[k]!r} "
                             "is not a non-negative integer")
    if not (isinstance(vocab, list) and all(isinstance(t, str) for t in vocab)):
        raise ValueError(f"{path}: checkpoint vocab is not a list of strings")
    try:
        vocab = Vocabulary(tuple(vocab))
    except ValueError as exc:
        raise ValueError(f"{path}: checkpoint {exc}") from None
    return config, vocab, [header[k] for k in _WIDTHS]


def load_checkpoint(path):
    """Inverse of ``save_checkpoint``: the arrays are views of one vector.
    A malformed header, a missing magic string or version, another version
    (an older file included), a missing config, vocab or width, config keys
    ``DecoderConfig`` does not know, a config value of the wrong type or out
    of range, a width that is not a non-negative integer, a vocabulary that
    repeats a token or lacks a special one, a file that ends inside an array
    (named) or has bytes after the last, a stored value that is not finite
    (its array named) and a norm std of 0 or less (its block named) raise
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
        config, vocab, widths = _header_contents(path, header)
        shapes = _checkpoint_arrays(config, len(vocab), *widths)
        ends = list(accumulate(math.prod(shape) for shape in shapes.values()))
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size < 8 * ends[-1]:
            cut = next(name for name, end in zip(shapes, ends) if 8 * end > size)
            raise ValueError(f"{path}: the file ends inside array {cut!r}, "
                             f"{size} of the vector's {8 * ends[-1]} bytes")
        if size > 8 * ends[-1]:
            raise ValueError(f"{path}: bytes left over after the last array")
        flat = np.empty(ends[-1], dtype="<f8")
        fh.readinto(flat)
    arrays = {name: a.reshape(shape) for (name, shape), a in
              zip(shapes.items(), np.split(flat, ends[:-1]))}
    if not np.isfinite(flat).all():
        bad = next(name for name, a in arrays.items() if not np.isfinite(a).all())
        raise ValueError(f"{path}: array {bad!r} holds a value that is not finite")
    for blk in NormStats.BLOCKS:
        if not (arrays[f"{blk}_std"] > 0).all():
            raise ValueError(f"{path}: checkpoint norm block {blk!r} has a std that is not > 0")
    norm = NormStats(*({blk: arrays.pop(f"{blk}_{part}") for blk in NormStats.BLOCKS}
                       for part in ("mean", "std")))
    return TrainedDecoder(params=arrays, config=config, vocab=vocab, norm=norm)
