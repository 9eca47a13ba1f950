"""Synthetic clip-pair corpora with planted ground truth, plus JSONL ingestion.

A corpus is a list of clip *pairs* (previous clip, current clip). Sentences
are templated: "<Person> <verb> <object>" or "<Person> greets <Person>",
where a person token is MaleName/FemaleName for a character not mentioned
in the previous sentence and MaleCoref/FemaleCoref otherwise. Track
appearance vectors are character centers plus Gaussian noise, so the
planted grounding is exactly recoverable at zero noise.

Generation makes one scalar draw per detection quantity from one seeded
stream, so its order is part of the output. The draws are spelled as
numpy's Generator computes them (``lo + (hi - lo) * rng.random()`` for
``rng.uniform(lo, hi)``), which is the same stream at a third of the
per-call cost; ``tests/references.py`` keeps the ``uniform``/``normal``
calls and the tests pin the two bitwise. A clip's and a line's track
statistics are one ``track_stats`` call.

The JSONL format is one clip per line::

    {"id": ..., "tracks": [{"id", "frames", "boxes", "score", "v_head",
     "v_body"}], "v_global": [...], "sentence": ["tok", ...],
     "mentions": [{"pos", "char", "gt_tracks"}],
     "frames": {"shape": [n, H, W, 3], "uint8": "<base64>"},
     "gt_boundaries": [b, ...]}

Consecutive lines form (previous, current) pairs; a trailing odd line is a
current-only pair. `boxes` entries are center-anchored [cx, cy, w, h]. The
optional clip-level "frames" field holds the clip's n RGB video frames for
the shot-boundary stage as one block: "uint8" is the standard, padded
base64 of the frames' n*H*W*3 bytes in C order (frame, row, column, then
R, G, B); "gt_boundaries" are its planted cuts, in 1..n-1. A mention's
gender and ``coref_prev`` are its person token's (``person_of``): a Coref
token co-refers to its own character, whom the pair's previous clip must
mention. Ingestion validates all invariants and reports the offending
line and field, and keeps every track. A grounding (planted or linked)
becomes a ``PairSupervision`` of track ids; only the decoder knows its
attention grid and the grid's caps.
"""

import base64
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .numerics import FLOAT, _is_finite, _is_number, check_config, rng_stream
from .shots import synthetic_cut_video
from .track_features import Detection, Track, track_stats

BOS = "<bos>"
EOS = "<eos>"
PERSON_TOKENS = ("MaleName", "FemaleName", "MaleCoref", "FemaleCoref")
NAME_TOKENS = ("MaleName", "FemaleName")

VERBS = ("walks", "sits", "waves", "reads", "jumps", "turns")
VERB_OBJECT = {"walks": "street", "sits": "bench", "waves": "crowd",
               "reads": "book", "jumps": "fence", "turns": "corner"}
GREET_VERB = "greets"
ALL_VERBS = VERBS + (GREET_VERB,)

FRAME_W, FRAME_H = 192.0, 108.0  # the frame the detection boxes are placed in
GLOBAL_NOISE = 0.05  # std of the Gaussian noise on every v_global entry


class ConfigError(ValueError):
    pass


class CorpusFormatError(ValueError):
    """JSONL schema violation, carrying the 1-based line (None for the
    sidecar meta file) and the field name."""

    def __init__(self, line, field_name, msg):
        self.line = line
        self.field = field_name
        where = "sidecar meta" if line is None else f"line {line}"
        super().__init__(f"{where}: field '{field_name}': {msg}")


def person_token(gender, coref):
    return ("Male" if gender == "M" else "Female") + ("Coref" if coref else "Name")


def person_of(token):
    """The (gender, coref) a person token states: ``person_token``'s
    inverse. Raises KeyError for a token outside ``PERSON_TOKENS``."""
    return {person_token(g, c): (g, c) for g in "MF" for c in (False, True)}[token]


@dataclass
class Vocabulary:
    """Distinct tokens with ``<bos>``, ``<eos>`` and every person token among
    them: otherwise ValueError names the tokens that repeat or are missing."""
    tokens: tuple

    def __post_init__(self):
        self.tokens = tuple(self.tokens)
        repeated = sorted(t for t, n in Counter(self.tokens).items() if n > 1)
        if repeated:
            raise ValueError(f"vocabulary repeats the tokens {repeated}")
        missing = [t for t in (BOS, EOS) + PERSON_TOKENS if t not in self.tokens]
        if missing:
            raise ValueError(f"vocabulary lacks the special tokens {missing}")
        self._index = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def build(cls, extra_tokens=()):
        core = [BOS, EOS, *PERSON_TOKENS]
        extras = sorted(set(extra_tokens) - set(core))
        return cls(tuple(core + extras))

    def __len__(self):
        return len(self.tokens)

    def index(self, token):
        try:
            return self._index[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None


@dataclass
class Character:
    id: int
    gender: str  # "M" | "F"
    head_center: np.ndarray
    body_center: np.ndarray


@dataclass
class Mention:
    pos: int
    char_id: int
    gender: str
    gt_track_ids: list
    coref_prev: int | None = None


@dataclass
class Clip:
    id: int
    tracks: list
    v_global: np.ndarray
    sentence: list
    mentions: list
    frames: list | None = None          # small RGB uint8 grids, optional
    track_chars: dict | None = None     # planted track_id -> character_id
    gt_boundaries: list | None = None   # planted shot cuts, optional

    def track_by_id(self, track_id):
        for t in self.tracks:
            if t.id == track_id:
                return t
        raise KeyError(f"clip {self.id}: no track with id {track_id}")


@dataclass
class ClipPair:
    id: int
    prev: Clip | None
    cur: Clip


@dataclass
class Corpus:
    pairs: list
    vocab: Vocabulary
    meta: dict = field(default_factory=dict)
    characters: list | None = None

    @property
    def clips(self):
        out = []
        for p in self.pairs:
            if p.prev is not None:
                out.append(p.prev)
            out.append(p.cur)
        return out

    def split(self, n_train):
        """Split pairs into (train, test) corpora sharing vocab and cast."""
        if not 0 < n_train < len(self.pairs):
            raise ValueError("split: n_train out of range")
        a = Corpus(self.pairs[:n_train], self.vocab, dict(self.meta), self.characters)
        b = Corpus(self.pairs[n_train:], self.vocab, dict(self.meta), self.characters)
        return a, b


@dataclass
class CorpusConfig:
    n_pairs: int = 100
    n_characters: int = 6
    d_head: int = 64
    d_body: int = 64
    d_global: int = 263
    sigma: float = 0.05
    margin: float = 1.0
    max_distractors: int = 2
    coref_fraction: float = 0.5
    two_mention_fraction: float = 0.3
    singleton_fraction: float = 0.15
    emit_frames: bool = False
    frames_per_clip: int = 9
    cuts_per_clip: int = 2

    def validate(self):
        """Raise ``ConfigError`` naming the first field of the wrong type
        (``numerics.check_config``) or out of its range."""
        try:
            check_config("CorpusConfig.validate", self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        unit = "must be in [0, 1]"
        for name, ok, rule in (
                ("n_pairs", self.n_pairs >= 1, "must be >= 1"),
                ("n_characters", self.n_characters >= 1, "must be >= 1"),
                ("d_head", self.d_head >= 2, "must be >= 2"),
                ("d_body", self.d_body >= 1, "must be >= 1"),
                ("d_global", self.d_global >= len(ALL_VERBS),
                 f"must be >= {len(ALL_VERBS)} to encode the verb"),
                ("sigma", self.sigma >= 0, "must be >= 0"),
                ("margin", self.margin > 0, "must be > 0"),
                ("max_distractors", self.max_distractors >= 0, "must be >= 0"),
                ("coref_fraction", 0 <= self.coref_fraction <= 1, unit),
                ("two_mention_fraction", 0 <= self.two_mention_fraction <= 1, unit),
                ("singleton_fraction", 0 <= self.singleton_fraction <= 1, unit),
                ("frames_per_clip", not self.emit_frames or self.frames_per_clip >= 2,
                 "must be >= 2 when emit_frames is set"),
                ("cuts_per_clip", self.cuts_per_clip >= 0, "must be >= 0")):
            if not ok:
                raise ConfigError(f"CorpusConfig.{name} {rule}, got {getattr(self, name)!r}")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _make_characters(config, rng):
    chars = []
    centers = []
    for cid in range(config.n_characters):
        gender = "M" if cid % 2 == 0 else "F"
        placed = None
        for _ in range(500):
            v = rng.normal(0.0, config.margin, size=config.d_head)
            # dimension 0 carries gender so appearance is informative of it
            v[0] = config.margin if gender == "M" else -config.margin
            # sqrt(d @ d) is what np.linalg.norm computes for a 1-D vector
            if all(math.sqrt(d @ d) >= config.margin for d in (v - c for c in centers)):
                placed = v
                break
        if placed is None:
            raise ConfigError(
                f"cannot place {config.n_characters} characters with margin "
                f"{config.margin} in {config.d_head} dims")
        body = rng.normal(0.0, config.margin, size=config.d_body)
        body[0] = config.margin if gender == "M" else -config.margin
        centers.append(placed)
        chars.append(Character(cid, gender, placed.astype(FLOAT), body.astype(FLOAT)))
    return chars


# the geometry draws are spelled as _make_detections' are, for its reason

def _described_geometry(rng):
    n = int(rng.integers(5, 10))
    w = 48.0 + (72.0 - 48.0) * rng.random()
    h = w * (0.9 + (1.1 - 0.9) * rng.random())
    cx = FRAME_W / 2.0 + FRAME_W / 10.0 * rng.standard_normal()
    cy = FRAME_H / 2.0 + FRAME_H / 10.0 * rng.standard_normal()
    return n, w, h, cx, cy


def _distractor_geometry(rng):
    n = int(rng.integers(3, 6))
    w = 28.0 + (44.0 - 28.0) * rng.random()
    h = w * (0.9 + (1.1 - 0.9) * rng.random())
    cx = (0.15 + (0.85 - 0.15) * rng.random()) * FRAME_W
    cy = (0.15 + (0.85 - 0.15) * rng.random()) * FRAME_H
    return n, w, h, cx, cy


def _make_detections(rng, n, w, h, cx, cy, score_lo, score_hi):
    # Five scalar draws per detection, in this order. rng.random() and
    # rng.standard_normal() cost a third of rng.uniform(lo, hi) and
    # rng.normal(loc, scale), which compute the same lo + (hi - lo) * u and
    # loc + scale * g; an array draw per track would reorder the stream.
    random, gauss = rng.random, rng.standard_normal
    t0 = int(rng.integers(0, 3))
    vx, vy = 1.5 * gauss(), 1.5 * gauss()
    w_range, score_range = 1.03 - 0.97, score_hi - score_lo
    dets = []
    for i in range(n):
        dets.append(Detection(
            t=t0 + i,
            x=cx + vx * i + 0.5 * gauss(),
            y=cy + vy * i + 0.5 * gauss(),
            w=w * (0.97 + w_range * random()),
            h=h * (0.97 + w_range * random()),
            score=score_lo + score_range * random(),
        ))
    return dets


def _appearance(rng, ch, sigma):
    """A track's (v_head, v_body) around ``ch``'s centers, from one draw."""
    d = len(ch.head_center)
    noise = rng.normal(0.0, sigma, size=d + len(ch.body_center))
    return ch.head_center + noise[:d], ch.body_center + noise[d:]


def _make_clip(clip_id, mentioned, distractor_chars, config, rng):
    """mentioned: list of (Character, coref_flag)."""
    # build tracks first so the two-mention order can follow track size
    entries = []  # (char, coref_flag_or_None_for_distractor, track)
    for ch, coref in mentioned:
        n, w, h, cx, cy = _described_geometry(rng)
        dets = _make_detections(rng, n, w, h, cx, cy, 0.7, 1.0)
        entries.append((ch, coref, Track(0, dets, *_appearance(rng, ch, config.sigma))))
    for ch in distractor_chars:
        n, w, h, cx, cy = _distractor_geometry(rng)
        dets = _make_detections(rng, n, w, h, cx, cy, 0.5, 0.9)
        entries.append((ch, None, Track(0, dets, *_appearance(rng, ch, config.sigma))))

    order = rng.permutation(len(entries))
    track_chars = {}
    tracks = []
    for new_id, j in enumerate(order, start=1):
        ch, _, tr = entries[j]
        tr.id = new_id
        tracks.append(tr)
        track_chars[new_id] = ch.id
    for tr, row in zip(tracks, track_stats(tracks)):
        tr.v_stat = row

    mention_entries = [(ch, coref, tr) for ch, coref, tr in entries if coref is not None]
    if len(mention_entries) == 2:
        # biggest character first, so the order is predictable from visuals
        mention_entries.sort(key=lambda e: -(len(e[2].detections) * e[2].mean_area()))
        ch1, co1, tr1 = mention_entries[0]
        ch2, co2, tr2 = mention_entries[1]
        sentence = [person_token(ch1.gender, co1), GREET_VERB, person_token(ch2.gender, co2)]
        verb = GREET_VERB
        mentions = [
            Mention(0, ch1.id, ch1.gender, [tr1.id], ch1.id if co1 else None),
            Mention(2, ch2.id, ch2.gender, [tr2.id], ch2.id if co2 else None),
        ]
    else:
        ch, co, tr = mention_entries[0]
        verb = str(rng.choice(VERBS))
        sentence = [person_token(ch.gender, co), verb, VERB_OBJECT[verb]]
        mentions = [Mention(0, ch.id, ch.gender, [tr.id], ch.id if co else None)]

    v_global = np.zeros(config.d_global, dtype=FLOAT)
    v_global[ALL_VERBS.index(verb)] = 3.0
    v_global += rng.normal(0.0, GLOBAL_NOISE, size=config.d_global)

    clip = Clip(id=clip_id, tracks=tracks, v_global=v_global,
                sentence=sentence, mentions=mentions, track_chars=track_chars)
    if config.emit_frames:
        clip.frames, clip.gt_boundaries = synthetic_cut_video(
            rng, config.frames_per_clip, config.cuts_per_clip)
    return clip


def _pick(rng, pool, k):
    pool = list(pool)
    k = min(k, len(pool))
    if k == 0:
        return []
    idx = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in np.atleast_1d(idx)]


def generate_corpus(config: CorpusConfig, seed):
    """Deterministic corpus of clip pairs; equal (config, seed) gives
    byte-identical JSONL exports."""
    config.validate()
    rng = rng_stream(seed, "corpus")
    chars = _make_characters(config, rng)
    by_id = {c.id: c for c in chars}
    pairs = []
    for k in range(config.n_pairs):
        singleton = rng.random() < config.singleton_fraction
        two = (not singleton and config.n_characters >= 2
               and rng.random() < config.two_mention_fraction)
        n_prev = 2 if two else 1
        prev_ids = [c.id for c in _pick(rng, chars, n_prev)]

        carried = [cid for cid in prev_ids if rng.random() < config.coref_fraction]
        n_cur = 2 if (not singleton and config.n_characters >= 2
                      and rng.random() < config.two_mention_fraction) else 1
        carried = carried[:n_cur]
        fresh_pool = [c.id for c in chars if c.id not in prev_ids]
        fresh = [cid for cid in _pick(rng, fresh_pool, n_cur - len(carried))]
        cur_ids = carried + fresh
        if not cur_ids:  # cast too small to introduce anyone new: carry one over
            cur_ids = [prev_ids[0]]
            carried = [prev_ids[0]]

        def distractors(exclude):
            if singleton:
                return []
            n = int(rng.integers(0, config.max_distractors + 1))
            pool = [c for c in chars if c.id not in exclude]
            return _pick(rng, pool, n)

        prev_clip = _make_clip(
            2 * k, [(by_id[cid], False) for cid in prev_ids],
            distractors(set(prev_ids)), config, rng)
        cur_clip = _make_clip(
            2 * k + 1, [(by_id[cid], cid in carried) for cid in cur_ids],
            distractors(set(cur_ids)), config, rng)
        pairs.append(ClipPair(id=k, prev=prev_clip, cur=cur_clip))

    extra = [*ALL_VERBS, *VERB_OBJECT.values()]
    vocab = Vocabulary.build(extra)
    meta = {
        "frame_w": FRAME_W, "frame_h": FRAME_H,
        "d_head": config.d_head, "d_body": config.d_body,
        "d_global": config.d_global, "seed": int(seed),
    }
    return Corpus(pairs=pairs, vocab=vocab, meta=meta, characters=chars)


# ---------------------------------------------------------------------------
# supervision from a grounding (planted or linked)
# ---------------------------------------------------------------------------

@dataclass
class PairSupervision:
    pair_id: int
    prev_grounding: list  # (track_id, char_id, gender), sentence order
    links: list           # (mention, track_id) of the current clip, sentence order


def pair_supervision(pair: ClipPair, prev_links, cur_links):
    """The supervision of one pair from a grounding: the (mention,
    track_id) links of its previous and current clip, each in sentence
    order. Its ``prev_grounding`` holds each character's first linked
    previous track; its ``links`` are the current clip's. The decoder maps
    them onto its attention grid (``decoder.build_train_items``)."""
    first = {}
    for m, tid in prev_links:
        first.setdefault(m.char_id, (tid, m.char_id, m.gender))
    return PairSupervision(pair_id=pair.id, prev_grounding=list(first.values()),
                           links=list(cur_links))


def planted_supervision(pair: ClipPair):
    """``pair_supervision`` of the planted grounding: each mention linked to
    its first ground-truth track, mentions without one left out. Its
    ``prev_grounding`` is the (track_id, char_id, gender) of each
    character's first previous-sentence mention, and its ``links`` are the
    exact groundings the linker's approximate."""
    def links(clip):  # sentence order
        if clip is None:
            return []
        return [(m, m.gt_track_ids[0])
                for m in sorted(clip.mentions, key=lambda m: m.pos) if m.gt_track_ids]
    return pair_supervision(pair, links(pair.prev), links(pair.cur))


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def _clip_to_obj(clip: Clip):
    tracks = []
    for t in clip.tracks:
        dets = sorted(t.detections, key=lambda d: d.t)
        tracks.append({
            "id": t.id,
            "frames": [int(d.t) for d in dets],
            "boxes": [[float(d.x), float(d.y), float(d.w), float(d.h)] for d in dets],
            "score": [float(d.score) for d in dets],
            "v_head": np.asarray(t.v_head, dtype=FLOAT).tolist(),
            "v_body": np.asarray(t.v_body, dtype=FLOAT).tolist(),
        })
    obj = {
        "id": clip.id,
        "tracks": tracks,
        "v_global": np.asarray(clip.v_global, dtype=FLOAT).tolist(),
        "sentence": list(clip.sentence),
        "mentions": [_mention_obj(clip, m) for m in clip.mentions],
    }
    if clip.frames is not None:
        obj["frames"] = _frames_block(clip)
    if clip.gt_boundaries is not None:
        obj["gt_boundaries"] = list(clip.gt_boundaries)
    return obj


def _mention_obj(clip: Clip, m: Mention):
    """A mention's entry on its clip's line. Its gender and ``coref_prev``
    are not written, so they must be what its person token states:
    ValueError names the clip and ``pos`` otherwise."""
    token = clip.sentence[m.pos] if 0 <= m.pos < len(clip.sentence) else None
    if token not in PERSON_TOKENS:
        raise ValueError(f"clip {clip.id}: mention at pos {m.pos} is not on a person token")
    gender, coref = person_of(token)
    if (m.gender, m.coref_prev) != (gender, m.char_id if coref else None):
        raise ValueError(f"clip {clip.id}: mention at pos {m.pos} has gender {m.gender!r} "
                         f"and coref_prev {m.coref_prev!r}, its token {token} says otherwise")
    return {"pos": m.pos, "char": m.char_id, "gt_tracks": list(m.gt_track_ids)}


def _frames_block(clip: Clip):
    """The clip's frames as one ``{"shape", "uint8"}`` block. The frames
    must be equal-shaped (H, W, 3) uint8 arrays, H and W at least 1: they
    are checked, never cast, so a wider pixel cannot wrap silently. An
    empty list is written with shape [0, 1, 1, 3]."""
    frames = clip.frames
    shape = frames[0].shape if len(frames) and isinstance(frames[0], np.ndarray) else (1, 1, 3)
    if not (len(shape) == 3 and shape[0] >= 1 and shape[1] >= 1 and shape[2] == 3
            and all(isinstance(f, np.ndarray) and f.dtype == np.uint8 and f.shape == shape
                    for f in frames)):
        raise ValueError(f"clip {clip.id}: frames must be equal-shaped (H, W, 3) uint8 arrays")
    data = b"".join(f.tobytes() for f in frames)
    return {"shape": [len(frames), *shape], "uint8": base64.b64encode(data).decode("ascii")}


def export_jsonl(corpus: Corpus, path):
    """One clip per line, (prev, cur) consecutive; sidecar meta JSON. A
    clip's frames are written as one block, ``{"shape": [n, H, W, 3],
    "uint8": <base64 of the C-order bytes>}``. Raises ValueError naming
    the clip when its frames are not equal-shaped (H, W, 3) uint8 arrays.
    A mention's gender and ``coref_prev`` are not written: ingest reads
    them off its person token, and a mention that contradicts its token, or
    is not on one, raises ValueError naming the clip and the mention's
    ``pos``."""
    with open(path, "w", encoding="utf-8") as fh:
        for pair in corpus.pairs:
            if pair.prev is not None:
                fh.write(json.dumps(_clip_to_obj(pair.prev)) + "\n")
            fh.write(json.dumps(_clip_to_obj(pair.cur)) + "\n")
    meta = dict(corpus.meta)
    meta["vocab"] = list(corpus.vocab.tokens)
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)


def _need(obj, key, line, kind=None):
    if key not in obj:
        raise CorpusFormatError(line, key, "missing field")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise CorpusFormatError(line, key, f"expected {kind}, got {type(val).__name__}")
    return val


def _parse_vector(obj, key, line, dims):
    """A flat list of finite numbers, as wide as every earlier ``key``
    vector of the corpus (``dims`` records the widths seen)."""
    raw = _need(obj, key, line, list)
    if not raw or not all(_is_finite(v) for v in raw):
        raise CorpusFormatError(line, key, "expected a non-empty flat list of finite numbers")
    if dims.setdefault(key, len(raw)) != len(raw):
        raise CorpusFormatError(line, key, f"{len(raw)} entries, the corpus has {dims[key]!r}")
    return np.asarray(raw, dtype=FLOAT)


def _parse_frames(raw, line):
    """A ``{"shape": [n, H, W, 3], "uint8": <base64>}`` block as n
    writable (H, W, 3) uint8 arrays, views of one buffer."""
    if not isinstance(raw, dict):
        raise CorpusFormatError(line, "frames", 'expected {"shape": [n, H, W, 3], '
                                '"uint8": <base64>}')
    shape = raw.get("shape")
    if not (isinstance(shape, list) and len(shape) == 4
            and all(_is_number(v, int) for v in shape)
            and shape[0] >= 0 and shape[1] >= 1 and shape[2] >= 1 and shape[3] == 3):
        raise CorpusFormatError(line, "frames", f"shape {shape!r} is not [n, H, W, 3] "
                                "with n >= 0, H >= 1 and W >= 1")
    encoded = raw.get("uint8")
    if not isinstance(encoded, str):
        raise CorpusFormatError(line, "frames", "uint8 must be a base64 string")
    try:
        data = bytearray(base64.b64decode(encoded, validate=True))
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise CorpusFormatError(line, "frames", f"uint8 is not base64: {exc}") from None
    if len(data) != math.prod(shape):
        raise CorpusFormatError(line, "frames", f"uint8 holds {len(data)} bytes, "
                                f"shape {shape} needs {math.prod(shape)}")
    return list(np.frombuffer(data, dtype=np.uint8).reshape(shape))


def _parse_clip(obj, line, dims, tokens, prev):
    """One clip line. ``dims`` holds the corpus's vector widths so far;
    ``tokens``, if not None, is the set of tokens a sentence may use;
    ``prev`` is the pair's previous clip, or None; a Coref token must name
    a character ``prev`` mentions."""
    if not isinstance(obj, dict):
        raise CorpusFormatError(line, "<root>", "clip line must be a JSON object")
    clip_id = _need(obj, "id", line)
    if not _is_number(clip_id, int):
        raise CorpusFormatError(line, "id", "clip ids must be integers")
    tracks = []
    for traw in _need(obj, "tracks", line, list):
        if not isinstance(traw, dict):
            raise CorpusFormatError(line, "tracks", "each track must be a JSON object")
        tid = _need(traw, "id", line)
        if not _is_number(tid, int):
            raise CorpusFormatError(line, "id", "track ids must be integers")
        frames = _need(traw, "frames", line, list)
        boxes = _need(traw, "boxes", line, list)
        scores = _need(traw, "score", line, list)
        if not (len(frames) == len(boxes) == len(scores)):
            raise CorpusFormatError(line, "boxes", "frames/boxes/score lengths differ")
        if not frames:
            raise CorpusFormatError(line, "frames", "track has no detections")
        dets = []
        for t, box, s in zip(frames, boxes, scores):
            if not (isinstance(box, list) and len(box) == 4):
                raise CorpusFormatError(line, "boxes", "each box must be [cx, cy, w, h]")
            if not all(_is_finite(v) for v in box):
                raise CorpusFormatError(line, "boxes", "box values must be finite numbers")
            if not _is_number(t, int):
                raise CorpusFormatError(line, "frames", "frame indices must be integers")
            if not _is_finite(s):
                raise CorpusFormatError(line, "score", "scores must be finite numbers")
            if box[2] <= 0 or box[3] <= 0:
                raise CorpusFormatError(line, "boxes", "box width/height must be positive")
            dets.append(Detection(t=int(t), x=float(box[0]), y=float(box[1]),
                                  w=float(box[2]), h=float(box[3]), score=float(s)))
        tracks.append(Track(id=tid, detections=dets,
                            v_head=_parse_vector(traw, "v_head", line, dims),
                            v_body=_parse_vector(traw, "v_body", line, dims)))
    with np.errstate(over="ignore", invalid="ignore"):
        stats = track_stats(tracks)
    finite = np.isfinite(stats)
    if not finite.all():  # the last two entries are the score's mean and std
        first = finite[~finite.all(axis=1)][0]
        raise CorpusFormatError(line, "score" if first[:-2].all() else "boxes",
                                "values overflow the track statistics")
    for tr, row in zip(tracks, stats):
        tr.v_stat = row
    if len({t.id for t in tracks}) != len(tracks):
        raise CorpusFormatError(line, "tracks", "duplicate track ids")
    ids = {t.id for t in tracks}

    v_global = _parse_vector(obj, "v_global", line, dims)
    sentence = _need(obj, "sentence", line, list)
    if not all(isinstance(t, str) for t in sentence):
        raise CorpusFormatError(line, "sentence", "tokens must be strings")
    if tokens is not None and not tokens.issuperset(sentence):
        unknown = sorted(set(sentence) - tokens)
        raise CorpusFormatError(line, "sentence", f"tokens {unknown} are not in the vocabulary")
    prev_chars = {m.char_id for m in prev.mentions} if prev is not None else set()
    mentions = []
    for mraw in _need(obj, "mentions", line, list):
        if not isinstance(mraw, dict):
            raise CorpusFormatError(line, "mentions", "each mention must be a JSON object")
        old = [k for k in ("gender", "coref_prev") if k in mraw]
        if old:
            raise CorpusFormatError(line, old[0], "an older format: the token states it")
        pos = _need(mraw, "pos", line)
        if not (_is_number(pos, int) and 0 <= pos < len(sentence)):
            raise CorpusFormatError(line, "pos", "mention position out of range")
        if sentence[pos] not in PERSON_TOKENS:
            raise CorpusFormatError(line, "pos", "mention does not point at a person token")
        char = _need(mraw, "char", line)
        if not _is_number(char, int):
            raise CorpusFormatError(line, "char", "character ids must be integers")
        gt = _need(mraw, "gt_tracks", line, list)
        for gid in gt:
            if not (_is_number(gid, int) and gid in ids):
                raise CorpusFormatError(line, "gt_tracks", f"unknown track id {gid!r}")
        gender, coref = person_of(sentence[pos])
        if coref and char not in prev_chars:
            raise CorpusFormatError(line, "char", f"{sentence[pos]} names character {char}, "
                                    "whom the pair's previous clip does not mention")
        mentions.append(Mention(pos=pos, char_id=char, gender=gender, gt_track_ids=list(gt),
                                coref_prev=char if coref else None))
    clip = Clip(id=clip_id, tracks=tracks, v_global=v_global,
                sentence=list(sentence), mentions=mentions)
    if "frames" in obj:
        clip.frames = _parse_frames(obj["frames"], line)
    if "gt_boundaries" in obj:
        cuts, n = obj["gt_boundaries"], math.inf if clip.frames is None else len(clip.frames)
        if not (isinstance(cuts, list) and all(_is_number(b, int) and 1 <= b < n for b in cuts)):
            raise CorpusFormatError(line, "gt_boundaries", f"{cuts!r} is not a list of "
                                    f"frame indices in 1..{n - 1}")
        clip.gt_boundaries = list(cuts)
    return clip


def _read_meta(path):
    """The sidecar meta object at ``path`` ({} when there is none), with its
    widths checked and no ``gt_boundaries`` (an older format), and its
    ``Vocabulary`` (None when it has no ``vocab``)."""
    if not os.path.exists(path):
        return {}, None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise CorpusFormatError(None, "<json>", f"{path} is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise CorpusFormatError(None, "<root>", f"{path} must hold a JSON object")
    for key in ("d_head", "d_body", "d_global"):
        if key in meta and not (_is_number(meta[key], int) and meta[key] > 0):
            raise CorpusFormatError(None, key, "expected a positive integer")
    vocab = None
    if "vocab" in meta:
        tokens = meta["vocab"]
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise CorpusFormatError(None, "vocab", "expected a list of strings")
        try:
            vocab = Vocabulary(tuple(tokens))
        except ValueError as exc:
            raise CorpusFormatError(None, "vocab", str(exc)) from None
    if "gt_boundaries" in meta:
        raise CorpusFormatError(None, "gt_boundaries", "an older format: cuts ride on "
                                "each clip's line")
    return meta, vocab


def ingest_jsonl(path):
    """Parse and validate a JSONL corpus; pairs consecutive clips.

    The sidecar meta, when present, is read first: its ``d_head``,
    ``d_body`` and ``d_global`` fix the vector widths and its ``vocab``
    the tokens a sentence may use. A malformed meta raises
    ``CorpusFormatError`` with line None; any other fault names its line
    and field: ``"id"`` for a repeated clip id, ``"char"`` for a Coref token
    whose character the pair's previous clip does not mention.

    A clip's ``frames`` block becomes ``Clip.frames``, a list of n
    writable (H, W, 3) uint8 arrays. Older files fail on the field that
    moved: nested pixel lists (``"frames"``), a mention's ``"gender"`` or
    ``"coref_prev"``, and a sidecar ``"gt_boundaries"``.
    """
    meta, vocab = _read_meta(str(path) + ".meta.json")
    dims = {f"v_{k}": meta[f"d_{k}"] for k in ("head", "body", "global") if f"d_{k}" in meta}
    known = set(vocab.tokens) if vocab is not None else None

    clips, ids = [], set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(line_no, "<json>", f"invalid JSON: {exc}") from None
            prev = clips[-1] if len(clips) % 2 else None  # odd positions are current clips
            clip = _parse_clip(obj, line_no, dims, known, prev)
            if clip.id in ids:
                raise CorpusFormatError(line_no, "id", f"clip id {clip.id} repeats")
            ids.add(clip.id)
            clips.append(clip)

    pairs = []
    for k in range(0, len(clips) - 1, 2):
        pairs.append(ClipPair(id=k // 2, prev=clips[k], cur=clips[k + 1]))
    if len(clips) % 2 == 1:
        pairs.append(ClipPair(id=len(clips) // 2, prev=None, cur=clips[-1]))

    if vocab is None:
        seen = set()
        for c in clips:
            seen.update(c.sentence)
        vocab = Vocabulary.build(seen)
    return Corpus(pairs=pairs, vocab=vocab, meta=meta)
