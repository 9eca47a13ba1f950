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

Only the hidden-state embedding changes from step to step: the cell
embeddings, their tanh and the cell features (``attention_terms``) are
built once per sentence and shared by its steps.

Training uses teacher forcing with two equally weighted terms: word
cross-entropy at every step, and attention cross-entropy against the
automatic one-hot targets at supervised person-word steps. All gradients
are hand-written and finite-difference checked. The backward pass keeps
only what depends on the hidden state per step; the gradients of the
weights behind the shared terms, like those of the LSTM and output layer,
are one matrix product per sentence.

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
    lstm_step_forward, masked_softmax, rng_stream, softmax, zeros_like_params,
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


def attention_backward(params, cache, dv_grounded, dlogits_extra, grads):
    """The per-step part of the backward through one attention step.

    ``dlogits_extra`` carries the attention-loss gradient already at the
    logits (softmax cross-entropy shortcut). Adds the gradients of
    ``w_att``, ``W_h`` and ``b_h`` into ``grads`` and returns
    (dh_prev, dlogits). The weights behind ``attention_terms`` get theirs
    once per sentence: with ``u = cache[4]``, their input gradient is
    ``dTf = Σ_t dlogits_t ⊗ u_t`` (see ``sentence_loss``).
    """
    Tf, q, _, u, alpha, cell, valid, h_prev = cache[1:9]

    dalpha = (cell.reshape(-1, cell.shape[2]) @ dv_grounded).reshape(alpha.shape)
    s = float((alpha * dalpha).sum())
    dlogits = alpha * (dalpha - s)
    if dlogits_extra is not None:
        dlogits = dlogits + dlogits_extra
    dlogits = np.where(valid, dlogits, 0.0)

    du = dlogits.reshape(-1) @ Tf.reshape(-1, Tf.shape[2])
    grads["w_att"] += du * q
    dq = du * params["w_att"]
    dpre_q = dq * (1.0 - q * q)
    grads["W_h"] += np.outer(dpre_q, h_prev)
    grads["b_h"] += dpre_q
    return params["W_h"].T @ dpre_q, dlogits


def _attention_terms_backward(terms, feats, dTf, grads):
    """Gradients of ``W_id``, ``b_v``, ``W_head``, ``W_body`` and ``W_stat``
    from ``dTf`` ((P_slots+1)·C_slots, d_att), the whole sentence's
    gradient at ``Tf``."""
    Tf = terms.Tf.reshape(dTf.shape)
    dF = dTf * (1.0 - Tf * Tf)
    grads["b_v"] += dF.sum(axis=0)
    grads["W_id"] += dF.T @ terms.M.reshape(len(dF), -1)
    df_cur = dF.reshape(terms.Tf.shape).sum(axis=0)
    grads["W_head"] += df_cur.T @ feats.cur_head
    grads["W_body"] += df_cur.T @ feats.cur_body
    grads["W_stat"] += df_cur.T @ feats.cur_stat


# ---------------------------------------------------------------------------
# one decoder step, sentence loss (teacher forcing) and its gradients
# ---------------------------------------------------------------------------

def _step(params, feats, terms, h, c, w_prev):
    """One step after word ``w_prev``: (alpha, att_cache, lstm_cache, h, c, logits)."""
    alpha, v_gr, att_cache = attention_step(params, h, feats, terms)
    x = np.concatenate([v_gr, feats.v_global, params["E"][w_prev]])
    h, c, lstm_cache = lstm_step_forward(params["W_lstm"], params["b_lstm"], x, h, c)
    return alpha, att_cache, lstm_cache, h, c, params["W_pred"] @ h + params["b_pred"]


def _extend(vocab: Vocabulary, sentence):
    return [vocab.index(BOS)] + [vocab.index(t) for t in sentence] + [vocab.index(EOS)]


def sentence_loss(params, config, vocab, feats: PairFeatures, sentence,
                  alpha_targets=None, grads=None):
    """Teacher-forced loss of one clip pair.

    ``alpha_targets``: {sentence position tau: (p, c)} with p in 0..P and
    c in 1..C (1-based); targets outside the valid cells of the grid are
    skipped but counted. The gradients are added into ``grads`` (a fresh
    zero dict when None). Returns (total, word_loss, att_loss, grads,
    skipped).
    """
    tokens = _extend(vocab, sentence)
    person_idx = {vocab.index(t) for t in PERSON_TOKENS}
    alpha_targets = alpha_targets or {}
    H = config.hidden
    if grads is None:
        grads = zeros_like_params(params)

    terms = attention_terms(params, feats)
    h = np.zeros(H, dtype=FLOAT)
    c = np.zeros(H, dtype=FLOAT)
    steps = []
    dlog = []   # per step: softmax(word logits) - onehot(target word)
    hs = []     # per step: h_t, the input of the output layer
    word_loss = 0.0
    att_loss = 0.0
    skipped = 0
    for step in range(1, len(tokens)):
        alpha, att_cache, lstm_cache, h, c, logits = _step(
            params, feats, terms, h, c, tokens[step - 1])
        if not np.all(np.isfinite(logits)):
            # numeric blow-up: surface as non-finite loss so training aborts
            return np.inf, np.inf, att_loss, grads, skipped
        word_loss += cross_entropy(logits, tokens[step])

        target_cell = None
        tau = step - 1  # sentence position this step predicts
        if tokens[step] in person_idx and tau in alpha_targets and alpha is not None:
            p, ci = alpha_targets[tau]
            valid, att_logits = att_cache[7], att_cache[-1]
            if p < valid.shape[0] and 1 <= ci <= valid.shape[1] and valid[p, ci - 1]:
                target_cell = (p, ci - 1)
                att_loss += cross_entropy(att_logits, target_cell, valid)
            else:
                skipped += 1
        probs = softmax(logits)
        probs[tokens[step]] -= 1.0
        dlog.append(probs)
        hs.append(h)
        steps.append((att_cache, lstm_cache, target_cell, alpha))

    total = word_loss + att_loss
    # output layer and the recurrent weights: one product per sentence
    dlog = np.stack(dlog)
    grads["W_pred"] += dlog.T @ np.stack(hs)
    grads["b_pred"] += dlog.sum(axis=0)
    dh_out = dlog @ params["W_pred"]

    T = len(steps)
    da = np.empty((T, 4 * H), dtype=FLOAT)
    dE = np.empty((T, config.d_emb), dtype=FLOAT)
    dh = np.zeros(H, dtype=FLOAT)
    dc = np.zeros(H, dtype=FLOAT)
    d_gr = config.d_grounded
    dlogits = []  # per attention step: gradient at its logits
    us = []       # per attention step: u, the logits' weight on Tf
    for t in range(T - 1, -1, -1):
        att_cache, lstm_cache, target_cell, alpha = steps[t]
        da[t], dx, dh_prev, dc_prev = lstm_step_backward(lstm_cache, dh + dh_out[t], dc)
        dE[t] = dx[d_gr + config.d_global:]
        if att_cache is not None:
            dlogits_extra = None
            if target_cell is not None:
                dlogits_extra = alpha.copy()
                dlogits_extra[target_cell] -= 1.0
            dh_att, dl = attention_backward(params, att_cache, dx[:d_gr],
                                            dlogits_extra, grads)
            dh_prev = dh_prev + dh_att
            dlogits.append(dl.reshape(-1))
            us.append(att_cache[4])
        dh, dc = dh_prev, dc_prev
    if dlogits:
        _attention_terms_backward(terms, feats, np.stack(dlogits).T @ np.stack(us), grads)
    grads["W_lstm"] += da.T @ np.stack([cache[1] for _, cache, _, _ in steps])
    grads["b_lstm"] += da.sum(axis=0)
    np.add.at(grads["E"], tokens[:-1], dE)
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
    # training counts over all epochs; not saved in checkpoints
    skipped_targets: int = 0   # attention targets outside the valid grid cells
    clipped_batches: int = 0   # batches whose gradients _clip_gradients scaled


def _clip_gradients(grads, max_norm):
    """Scale ``grads`` to global norm ``max_norm`` when above it (0 or None
    switches clipping off); returns whether it scaled."""
    if not max_norm:
        return False
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
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
    False (the words-only ablation). Raises TrainingDiverged with the
    last finite-loss parameters if the loss or a weight goes non-finite.
    """
    if norm is None:
        norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks])
    items = build_train_items(corpus, supervision, norm, config)
    vocab = corpus.vocab
    params = init_decoder_params(config, len(vocab), seed)
    opt = Adam(lr=config.lr)
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
                    t, w, a, _, skipped = sentence_loss(
                        params, config, vocab, item.feats, item.sentence,
                        item.alpha_targets, grads=grads)
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
    h = np.zeros(config.hidden, dtype=FLOAT)
    c = np.zeros(config.hidden, dtype=FLOAT)
    w_prev = vocab.index(BOS)
    eos = vocab.index(EOS)
    tokens = []
    predictions = []
    alphas = []
    for _ in range(config.max_len):
        alpha, _, _, h, c, logits = _step(params, feats, terms, h, c, w_prev)
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
