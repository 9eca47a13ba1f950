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
statistics are one ``track_stats`` call. ``CorpusConfig`` holds the five
settings a workload varies, frozen and checked when it is made
(``numerics.check_config``); the vector widths ``D_HEAD``, ``D_BODY`` and
``D_GLOBAL``, the noise ``SIGMA``, the character ``MARGIN``, the
``COREF_FRACTION`` and ``SINGLETON_FRACTION`` and a clip's
``FRAMES_PER_CLIP`` and ``CUTS_PER_CLIP`` are module constants, read at
each call, as are ``FRAME_W``, ``FRAME_H`` and ``GLOBAL_NOISE``.

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
R, G, B); "gt_boundaries" are its planted cuts. A mention's gender and
``coref_prev`` are its person token's (``person_of``): a Coref token
co-refers to its own character.

Ingestion keeps every track and names the line and field of each fault.
Each field's JSON kind is a row of a table (``_CLIP``, ``_TRACK``,
``_MENTION``, ``_FRAMES``, ``_META``) read by ``numerics._read_object``;
there track ids start at 1, as 0 is the decoder's null slot. The rules
that span fields are code: a track's frames, boxes and scores are equally
long and not empty; a vector is as wide as the meta says or the corpus's
first; track statistics are finite; clip ids, and a clip's track ids,
are distinct; a mention's pos is on a person token no other mention of
its clip holds, its gt_tracks are its clip's, and a Coref token's
character is one the pair's previous clip mentions; "gt_boundaries" lie
in 1..n-1. A grounding (planted or linked) becomes a ``PairSupervision``
of track ids; only the decoder knows its attention grid and its caps.
"""

import base64
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .numerics import (
    FLOAT, _is_finite, _is_number, _json_value, _read_object, check_config, rng_stream,
)
from .shots import synthetic_cut_video
from .track_features import Detection, Track, track_stats

BOS = "<bos>"
EOS = "<eos>"
PERSON_TOKENS = ("MaleName", "FemaleName", "MaleCoref", "FemaleCoref")

VERBS = ("walks", "sits", "waves", "reads", "jumps", "turns")
VERB_OBJECT = {"walks": "street", "sits": "bench", "waves": "crowd",
               "reads": "book", "jumps": "fence", "turns": "corner"}
GREET_VERB = "greets"
ALL_VERBS = VERBS + (GREET_VERB,)

FRAME_W, FRAME_H = 192.0, 108.0  # the frame the detection boxes are placed in
GLOBAL_NOISE = 0.05  # std of the Gaussian noise on every v_global entry
D_HEAD, D_BODY, D_GLOBAL = 64, 64, 263  # widths of v_head, v_body and v_global
SIGMA = 0.05  # std of the Gaussian noise on a track's appearance around its character
MARGIN = 1.0  # least distance between two characters' head centers
COREF_FRACTION = 0.5  # chance that a previous-clip character returns in the current clip
SINGLETON_FRACTION = 0.15  # chance that a pair has no distractors and one mention a clip
FRAMES_PER_CLIP, CUTS_PER_CLIP = 9, 2  # a clip's video when emit_frames is set


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


@dataclass(frozen=True)
class CorpusConfig:
    n_pairs: int = 100
    n_characters: int = 6
    max_distractors: int = 2
    two_mention_fraction: float = 0.3
    emit_frames: bool = False

    def __post_init__(self):
        check_config(self, {"n_pairs": (1, math.inf), "n_characters": (1, math.inf),
                            "max_distractors": (0, math.inf), "two_mention_fraction": (0, 1)})


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
            v = rng.normal(0.0, MARGIN, size=D_HEAD)
            # dimension 0 carries gender so appearance is informative of it
            v[0] = MARGIN if gender == "M" else -MARGIN
            # sqrt(d @ d) is what np.linalg.norm computes for a 1-D vector
            if all(math.sqrt(d @ d) >= MARGIN for d in (v - c for c in centers)):
                placed = v
                break
        if placed is None:
            raise ValueError(
                f"cannot place {config.n_characters} characters with margin "
                f"{MARGIN} in {D_HEAD} dims")
        body = rng.normal(0.0, MARGIN, size=D_BODY)
        body[0] = MARGIN if gender == "M" else -MARGIN
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


def _appearance(rng, ch):
    """A track's (v_head, v_body) around ``ch``'s centers, from one draw."""
    d = len(ch.head_center)
    noise = rng.normal(0.0, SIGMA, size=d + len(ch.body_center))
    return ch.head_center + noise[:d], ch.body_center + noise[d:]


def _make_clip(clip_id, mentioned, distractor_chars, config, rng):
    """mentioned: list of (Character, coref_flag)."""
    # build tracks first so the two-mention order can follow track size
    entries = []  # (char, coref_flag_or_None_for_distractor, track)
    for ch, coref in mentioned:
        n, w, h, cx, cy = _described_geometry(rng)
        dets = _make_detections(rng, n, w, h, cx, cy, 0.7, 1.0)
        entries.append((ch, coref, Track(0, dets, *_appearance(rng, ch))))
    for ch in distractor_chars:
        n, w, h, cx, cy = _distractor_geometry(rng)
        dets = _make_detections(rng, n, w, h, cx, cy, 0.5, 0.9)
        entries.append((ch, None, Track(0, dets, *_appearance(rng, ch))))

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

    v_global = np.zeros(D_GLOBAL, dtype=FLOAT)
    v_global[ALL_VERBS.index(verb)] = 3.0
    v_global += rng.normal(0.0, GLOBAL_NOISE, size=D_GLOBAL)

    clip = Clip(id=clip_id, tracks=tracks, v_global=v_global,
                sentence=sentence, mentions=mentions, track_chars=track_chars)
    if config.emit_frames:
        clip.frames, clip.gt_boundaries = synthetic_cut_video(rng, FRAMES_PER_CLIP, CUTS_PER_CLIP)
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
    rng = rng_stream(seed, "corpus")
    chars = _make_characters(config, rng)
    by_id = {c.id: c for c in chars}
    pairs = []
    for k in range(config.n_pairs):
        singleton = rng.random() < SINGLETON_FRACTION
        two = (not singleton and config.n_characters >= 2
               and rng.random() < config.two_mention_fraction)
        n_prev = 2 if two else 1
        prev_ids = [c.id for c in _pick(rng, chars, n_prev)]

        carried = [cid for cid in prev_ids if rng.random() < COREF_FRACTION]
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
        "d_head": D_HEAD, "d_body": D_BODY, "d_global": D_GLOBAL, "seed": int(seed),
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
        if not t.id >= 1:  # 0 is the decoder's null slot
            raise ValueError(f"clip {clip.id}: track id {t.id!r} is below 1")
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
    if [o.pos for o in clip.mentions].count(m.pos) > 1:
        raise ValueError(f"clip {clip.id}: two mentions at pos {m.pos}")
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
    them off its person token, and a mention that contradicts its token, is
    not on one or shares its ``pos`` with another raises ValueError naming
    the clip and the ``pos``; so does a track id below 1, naming the clip."""
    with open(path, "w", encoding="utf-8") as fh:
        for pair in corpus.pairs:
            if pair.prev is not None:
                fh.write(json.dumps(_clip_to_obj(pair.prev)) + "\n")
            fh.write(json.dumps(_clip_to_obj(pair.cur)) + "\n")
    meta = dict(corpus.meta)
    meta["vocab"] = list(corpus.vocab.tokens)
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)


# The format's fields and their JSON kinds, key -> (test, kind), each read
# by numerics._read_object; the rules that span fields are code after it.

def _list_of(test, least=0):
    return lambda v: isinstance(v, list) and len(v) >= least and all(map(test, v))


_is_int = partial(_is_number, kind=int)
_is_ints, _is_finites = _list_of(_is_int), _list_of(_is_finite)
_is_strings = _list_of(lambda v: isinstance(v, str))
_INT, _INTS = (_is_int, "an integer"), (_is_ints, "a list of integers")
_OBJECTS = (_list_of(lambda v: isinstance(v, dict)), "a list of JSON objects")
_VECTOR = (_list_of(_is_finite, least=1), "a non-empty list of finite numbers")
_VOCAB = (_is_strings, "a list of strings")  # the meta's, and a checkpoint's

_CLIP = {"id": _INT, "tracks": _OBJECTS, "v_global": _VECTOR,
         "sentence": (lambda v: _is_strings(v) and BOS not in v and EOS not in v,
                      f"a list of strings without {BOS} or {EOS}"),
         "mentions": _OBJECTS, "gt_boundaries": _INTS,
         "frames": (lambda v: isinstance(v, dict), 'a {"shape", "uint8"} object')}
_TRACK = {"id": (lambda v: _is_int(v) and v >= 1, "an integer from 1"),  # 0: the null slot
          "frames": _INTS,
          "boxes": (_list_of(lambda b: _is_finites(b) and len(b) == 4 and b[2] > 0 and b[3] > 0),
                    "a list of [cx, cy, w, h], finite with w, h > 0"),
          "score": (_is_finites, "a list of finite numbers"), "v_head": _VECTOR, "v_body": _VECTOR}
_MOVED = (lambda v: False, "absent (an older format's field)")
_MENTION = {"pos": _INT, "char": _INT, "gt_tracks": _INTS, "gender": _MOVED, "coref_prev": _MOVED}
_FRAMES = {"shape": (lambda s: _is_ints(s) and len(s) == 4 and s[0] >= 0 and min(s[1:3]) >= 1
                     and s[3] == 3, "[n, H, W, 3] with n >= 0, H >= 1 and W >= 1"),
           "uint8": (lambda v: isinstance(v, str), "a base64 string")}
_META = {**dict.fromkeys(("d_head", "d_body", "d_global"),
                         (lambda v: _is_int(v) and v > 0, "a positive integer")),
         "vocab": _VOCAB, "gt_boundaries": _MOVED}


def _vector(raw, key, line, dims):
    """``raw`` as a float vector, as wide as every earlier ``key`` vector
    of the corpus (``dims`` records the widths seen)."""
    if dims.setdefault(key, len(raw)) != len(raw):
        raise CorpusFormatError(line, key, f"{len(raw)} entries, the corpus has {dims[key]!r}")
    return np.asarray(raw, dtype=FLOAT)


def _parse_frames(raw, line):
    """A ``{"shape": [n, H, W, 3], "uint8": <base64>}`` block as n
    writable (H, W, 3) uint8 arrays, views of one buffer."""
    shape, encoded = _read_object(raw, _FRAMES,
                                  lambda key, msg: CorpusFormatError(line, "frames", msg))
    try:
        data = bytearray(base64.b64decode(encoded, validate=True))
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise CorpusFormatError(line, "frames", f"uint8 is not base64: {exc}") from None
    if len(data) != math.prod(shape):
        raise CorpusFormatError(line, "frames", f"uint8 holds {len(data)} bytes, "
                                f"shape {shape} needs {math.prod(shape)}")
    return list(np.frombuffer(data, dtype=np.uint8).reshape(shape))


def _parse_clip(raw, line, dims, tokens, prev):
    """One clip line, its bytes. ``dims`` holds the corpus's vector widths
    so far; ``tokens``, if not None, is the set of tokens a sentence may
    use; ``prev`` is the pair's previous clip, or None; a Coref token must
    name a character ``prev`` mentions."""
    error = partial(CorpusFormatError, line)
    clip_id, track_objs, v_global, sentence, mention_objs, cuts, block = _read_object(
        _json_value(raw, error), _CLIP, error, optional=("frames", "gt_boundaries"))
    tracks = []
    for traw in track_objs:
        tid, frames, boxes, scores, v_head, v_body = _read_object(traw, _TRACK, error)
        if not (len(frames) == len(boxes) == len(scores)):
            raise CorpusFormatError(line, "boxes", "frames/boxes/score lengths differ")
        if not frames:
            raise CorpusFormatError(line, "frames", "track has no detections")
        dets = [Detection(t=t, x=float(x), y=float(y), w=float(w), h=float(h), score=float(s))
                for t, (x, y, w, h), s in zip(frames, boxes, scores)]
        tracks.append(Track(id=tid, detections=dets, v_head=_vector(v_head, "v_head", line, dims),
                            v_body=_vector(v_body, "v_body", line, dims)))
    with np.errstate(over="ignore", invalid="ignore"):
        stats = track_stats(tracks)
    finite = np.isfinite(stats)
    if not finite.all():  # the last two entries are the score's mean and std
        first = finite[~finite.all(axis=1)][0]
        raise CorpusFormatError(line, "score" if first[:-2].all() else "boxes",
                                "values overflow the track statistics")
    for tr, row in zip(tracks, stats):
        tr.v_stat = row
    ids = {t.id for t in tracks}
    if len(ids) != len(tracks):
        raise CorpusFormatError(line, "tracks", "duplicate track ids")

    v_global = _vector(v_global, "v_global", line, dims)
    if tokens is not None and not tokens.issuperset(sentence):
        unknown = sorted(set(sentence) - tokens)
        raise CorpusFormatError(line, "sentence", f"tokens {unknown} are not in the vocabulary")
    prev_chars = {m.char_id for m in prev.mentions} if prev is not None else set()
    mentions = []
    for mraw in mention_objs:
        pos, char, gt, _, _ = _read_object(mraw, _MENTION, error,
                                           optional=("gender", "coref_prev"))
        if not 0 <= pos < len(sentence):
            raise CorpusFormatError(line, "pos", "mention position out of range")
        if sentence[pos] not in PERSON_TOKENS:
            raise CorpusFormatError(line, "pos", "mention does not point at a person token")
        if any(m.pos == pos for m in mentions):
            raise CorpusFormatError(line, "pos", f"a second mention at position {pos}")
        if not ids.issuperset(gt):
            raise CorpusFormatError(line, "gt_tracks", f"unknown track ids {sorted(set(gt) - ids)}")
        gender, coref = person_of(sentence[pos])
        if coref and char not in prev_chars:
            raise CorpusFormatError(line, "char", f"{sentence[pos]} names character {char}, "
                                    "whom the pair's previous clip does not mention")
        mentions.append(Mention(pos=pos, char_id=char, gender=gender, gt_track_ids=list(gt),
                                coref_prev=char if coref else None))
    clip = Clip(id=clip_id, tracks=tracks, v_global=v_global,
                sentence=list(sentence), mentions=mentions)
    if block is not None:
        clip.frames = _parse_frames(block, line)
    if cuts is not None:
        n = math.inf if clip.frames is None else len(clip.frames)
        if not all(1 <= b < n for b in cuts):
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
    error = partial(CorpusFormatError, None)
    with open(path, "rb") as fh:
        meta = _json_value(fh.read(), error)
    *_, tokens, _ = _read_object(meta, _META, error, optional=_META)
    try:
        vocab = None if tokens is None else Vocabulary(tuple(tokens))
    except ValueError as exc:
        raise CorpusFormatError(None, "vocab", str(exc)) from None
    return meta, vocab


def ingest_jsonl(path):
    """Parse and validate a JSONL corpus; pairs consecutive clips.

    The sidecar meta, when present, is read first: its ``d_head``,
    ``d_body`` and ``d_global`` fix the vector widths and its ``vocab``
    the tokens a sentence may use. A malformed meta raises
    ``CorpusFormatError`` with line None, any other fault with its line;
    a line that is not UTF-8 JSON, or nests past the recursion limit, names
    the field ``"<json>"``.

    A clip's ``frames`` block becomes ``Clip.frames``, a list of n
    writable (H, W, 3) uint8 arrays. Older files fail on the field that
    moved: nested pixel lists (``"frames"``), a mention's ``"gender"`` or
    ``"coref_prev"``, and a sidecar ``"gt_boundaries"``.
    """
    meta, vocab = _read_meta(str(path) + ".meta.json")
    dims = {f"v_{k}": meta[f"d_{k}"] for k in ("head", "body", "global") if f"d_{k}" in meta}
    known = set(vocab.tokens) if vocab is not None else None

    clips, ids = [], set()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            prev = clips[-1] if len(clips) % 2 else None  # odd positions are current clips
            clip = _parse_clip(raw, line_no, dims, known, prev)
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
