"""Synthetic clip-pair corpora with planted ground truth, plus JSONL ingestion.

A corpus is a list of clip *pairs* (previous clip, current clip). Sentences
are templated: "<Person> <verb> <object>" or "<Person> greets <Person>",
where a person token is MaleName/FemaleName for a character not mentioned
in the previous sentence and MaleCoref/FemaleCoref otherwise. Track
appearance vectors are character centers plus Gaussian noise, so the
planted grounding is exactly recoverable at zero noise.

The JSONL format is one clip per line::

    {"id": ..., "tracks": [{"id", "frames", "boxes", "score", "v_head",
     "v_body"}], "v_global": [...], "sentence": ["tok", ...],
     "mentions": [{"pos", "char", "gender", "gt_tracks", "coref_prev"}]}

Consecutive lines form (previous, current) pairs; a trailing odd line is a
current-only pair. `boxes` entries are center-anchored [cx, cy, w, h]. An
optional "frames" field holds a small RGB pixel grid per video frame for
the shot-boundary stage. Ingestion validates all invariants and reports
the offending line and field.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .numerics import FLOAT, rng_stream
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

C_MAX = 50  # current-clip track cap
P_MAX = 7   # previous-track candidates in addition to the null track


class ConfigError(ValueError):
    pass


class CorpusFormatError(ValueError):
    """JSONL schema violation, carrying the 1-based line and field name."""

    def __init__(self, line, field_name, msg):
        self.line = line
        self.field = field_name
        super().__init__(f"line {line}: field '{field_name}': {msg}")


def person_token(gender, coref):
    return ("Male" if gender == "M" else "Female") + ("Coref" if coref else "Name")


@dataclass
class Vocabulary:
    tokens: tuple

    def __post_init__(self):
        toks = list(self.tokens)
        for special in (BOS, EOS) + PERSON_TOKENS:
            if toks.count(special) != 1:
                raise ValueError(f"vocabulary must contain '{special}' exactly once")
        self.tokens = tuple(toks)
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

    def is_person(self, token):
        return token in PERSON_TOKENS


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
    frame_w: float = 192.0
    frame_h: float = 108.0
    global_noise: float = 0.05
    described_biggest: bool = False
    distractor_near_center: bool = False
    emit_frames: bool = False
    frame_px_w: int = 32
    frame_px_h: int = 24
    frames_per_clip: int = 9
    cuts_per_clip: int = 2

    def validate(self):
        if self.n_pairs < 1 or self.n_characters < 1:
            raise ConfigError("need at least one pair and one character")
        if self.d_head < 2 or self.d_body < 1:
            raise ConfigError("d_head must be >= 2 and d_body >= 1")
        if self.d_global < len(ALL_VERBS):
            raise ConfigError(f"d_global must be >= {len(ALL_VERBS)} to encode the verb")
        if self.sigma < 0 or self.margin <= 0:
            raise ConfigError("sigma must be >= 0 and margin > 0")
        if not (0 <= self.coref_fraction <= 1):
            raise ConfigError("coref_fraction must be in [0, 1]")


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
            if all(np.linalg.norm(v - c) >= config.margin for c in centers):
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


def _described_geometry(rng, config, off_center=False):
    lo, hi = (56.0, 72.0) if config.described_biggest else (48.0, 72.0)
    n = int(rng.integers(8, 11)) if config.described_biggest else int(rng.integers(5, 10))
    w = rng.uniform(lo, hi)
    h = w * rng.uniform(0.9, 1.1)
    cx = config.frame_w / 2.0 + rng.normal(0.0, config.frame_w / 10.0)
    cy = config.frame_h / 2.0 + rng.normal(0.0, config.frame_h / 10.0)
    if off_center:
        cx = config.frame_w * 0.75 + rng.normal(0.0, config.frame_w / 20.0)
    return n, w, h, cx, cy


def _distractor_geometry(rng, config, at_center=False):
    lo, hi = (28.0, 40.0) if config.described_biggest else (28.0, 44.0)
    n = int(rng.integers(3, 6))
    w = rng.uniform(lo, hi)
    h = w * rng.uniform(0.9, 1.1)
    cx = rng.uniform(0.15, 0.85) * config.frame_w
    cy = rng.uniform(0.15, 0.85) * config.frame_h
    if at_center:
        cx, cy = config.frame_w / 2.0, config.frame_h / 2.0
    return n, w, h, cx, cy


def _make_detections(rng, n, w, h, cx, cy, score_lo, score_hi):
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


def _appearance(rng, center, sigma):
    return (center + rng.normal(0.0, sigma, size=center.shape)).astype(FLOAT)


def _render_video(rng, config):
    return synthetic_cut_video(rng, config.frames_per_clip, config.cuts_per_clip,
                               height=config.frame_px_h, width=config.frame_px_w)


def _make_clip(clip_id, mentioned, distractor_chars, config, rng):
    """mentioned: list of (Character, coref_flag)."""
    # build tracks first so the two-mention order can follow track size
    entries = []  # (char, coref_flag_or_None_for_distractor, track)
    for idx, (ch, coref) in enumerate(mentioned):
        off = config.distractor_near_center and idx == 0
        n, w, h, cx, cy = _described_geometry(rng, config, off_center=off)
        dets = _make_detections(rng, n, w, h, cx, cy, 0.7, 1.0)
        tr = Track(id=0, detections=dets,
                   v_head=_appearance(rng, ch.head_center, config.sigma),
                   v_body=_appearance(rng, ch.body_center, config.sigma))
        entries.append((ch, coref, tr))
    for idx, ch in enumerate(distractor_chars):
        at_center = config.distractor_near_center and idx == 0
        n, w, h, cx, cy = _distractor_geometry(rng, config, at_center=at_center)
        dets = _make_detections(rng, n, w, h, cx, cy, 0.5, 0.9)
        tr = Track(id=0, detections=dets,
                   v_head=_appearance(rng, ch.head_center, config.sigma),
                   v_body=_appearance(rng, ch.body_center, config.sigma))
        entries.append((ch, None, tr))

    order = rng.permutation(len(entries))
    track_chars = {}
    tracks = []
    for new_id, j in enumerate(order, start=1):
        ch, _, tr = entries[j]
        tr.id = new_id
        tr.v_stat = track_stats(tr)
        tracks.append(tr)
        track_chars[new_id] = ch.id

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
    v_global += rng.normal(0.0, config.global_noise, size=config.d_global)

    clip = Clip(id=clip_id, tracks=tracks, v_global=v_global,
                sentence=sentence, mentions=mentions, track_chars=track_chars)
    if config.emit_frames:
        clip.frames, clip.gt_boundaries = _render_video(rng, config)
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
        "frame_w": config.frame_w, "frame_h": config.frame_h,
        "d_head": config.d_head, "d_body": config.d_body,
        "d_global": config.d_global, "seed": int(seed),
    }
    return Corpus(pairs=pairs, vocab=vocab, meta=meta, characters=chars)


# ---------------------------------------------------------------------------
# planted ground truth
# ---------------------------------------------------------------------------

def planted_prev_grounding(pair: ClipPair):
    """(track_id, char_id, gender) per previous-sentence mention, in
    sentence order, first occurrence per character."""
    out = []
    seen = set()
    if pair.prev is None:
        return out
    for m in sorted(pair.prev.mentions, key=lambda m: m.pos):
        if m.char_id in seen or not m.gt_track_ids:
            continue
        seen.add(m.char_id)
        out.append((m.gt_track_ids[0], m.char_id, m.gender))
    return out[:P_MAX]


@dataclass
class AlphaTarget:
    tau: int   # sentence position of the person word
    p: int     # 0 = null track, else 1-based index into the candidate list
    c: int     # 1-based index into the current clip's (capped) track list


def planted_alpha_targets(pair: ClipPair):
    """Exact joint attention targets from the planted grounding."""
    grounding = planted_prev_grounding(pair)
    prev_pos = {char: i + 1 for i, (_, char, _) in enumerate(grounding)}
    track_index = {t.id: i + 1 for i, t in enumerate(cap_tracks(pair.cur.tracks))}
    out = []
    for m in pair.cur.mentions:
        if not m.gt_track_ids or m.gt_track_ids[0] not in track_index:
            continue
        c = track_index[m.gt_track_ids[0]]
        p = prev_pos.get(m.coref_prev, 0) if m.coref_prev is not None else 0
        out.append(AlphaTarget(tau=m.pos, p=p, c=c))
    return out


def planted_eval_gt(pair: ClipPair):
    """Per person-word slot: the reference word, acceptable current track
    ids, and the correct previous track id (0 = null)."""
    grounding = planted_prev_grounding(pair)
    prev_track = {char: tid for tid, char, _ in grounding}
    out = []
    for m in sorted(pair.cur.mentions, key=lambda m: m.pos):
        p_track = prev_track.get(m.coref_prev, 0) if m.coref_prev is not None else 0
        out.append({
            "pair_id": pair.id,
            "tau": m.pos,
            "word": pair.cur.sentence[m.pos],
            "gt_tracks": list(m.gt_track_ids),
            "p_track": p_track,
        })
    return out


def planted_annotations(corpus: Corpus, per_mention=2):
    """Sampled (frame, box) annotations of ground-truth tracks, for the
    detection/track recall metrics."""
    out = []
    for pair in corpus.pairs:
        for role, clip in (("prev", pair.prev), ("cur", pair.cur)):
            if clip is None:
                continue
            for m in clip.mentions:
                if not m.gt_track_ids:
                    continue
                tr = clip.track_by_id(m.gt_track_ids[0])
                dets = sorted(tr.detections, key=lambda d: d.t)
                step = max(1, len(dets) // per_mention)
                for d in dets[::step][:per_mention]:
                    out.append({
                        "pair_id": pair.id, "clip": role, "clip_id": clip.id,
                        "frame": d.t, "box": [d.x, d.y, d.w, d.h],
                        "char": m.char_id,
                    })
    return out


# ---------------------------------------------------------------------------
# capping and JSONL
# ---------------------------------------------------------------------------

def cap_tracks(tracks, c_max=C_MAX):
    """Keep the longest ``c_max`` tracks (by detection count, id breaking
    ties); order is untouched when nothing is dropped."""
    if len(tracks) <= c_max:
        return list(tracks)
    return sorted(tracks, key=lambda t: (-len(t.detections), t.id))[:c_max]


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
        "mentions": [{
            "pos": m.pos, "char": m.char_id, "gender": m.gender,
            "gt_tracks": list(m.gt_track_ids), "coref_prev": m.coref_prev,
        } for m in clip.mentions],
    }
    if clip.frames is not None:
        obj["frames"] = [np.asarray(f).tolist() for f in clip.frames]
    return obj


def export_jsonl(corpus: Corpus, path):
    """One clip per line, (prev, cur) consecutive; sidecar meta JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for pair in corpus.pairs:
            if pair.prev is not None:
                fh.write(json.dumps(_clip_to_obj(pair.prev)) + "\n")
            fh.write(json.dumps(_clip_to_obj(pair.cur)) + "\n")
    meta = dict(corpus.meta)
    meta["vocab"] = list(corpus.vocab.tokens)
    boundaries = {}
    for clip in corpus.clips:
        if clip.gt_boundaries is not None:
            boundaries[str(clip.id)] = list(clip.gt_boundaries)
    if boundaries:
        meta["gt_boundaries"] = boundaries
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)


def _need(obj, key, line, kind=None):
    if key not in obj:
        raise CorpusFormatError(line, key, "missing field")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise CorpusFormatError(line, key, f"expected {kind}, got {type(val).__name__}")
    return val


def _parse_clip(obj, line):
    if not isinstance(obj, dict):
        raise CorpusFormatError(line, "<root>", "clip line must be a JSON object")
    clip_id = _need(obj, "id", line)
    tracks = []
    dims = {}
    for traw in _need(obj, "tracks", line, list):
        tid = _need(traw, "id", line)
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
            if box[2] <= 0 or box[3] <= 0:
                raise CorpusFormatError(line, "boxes", "box width/height must be positive")
            dets.append(Detection(t=int(t), x=float(box[0]), y=float(box[1]),
                                  w=float(box[2]), h=float(box[3]), score=float(s)))
        v_head = np.asarray(_need(traw, "v_head", line, list), dtype=FLOAT)
        v_body = np.asarray(_need(traw, "v_body", line, list), dtype=FLOAT)
        for name, v in (("v_head", v_head), ("v_body", v_body)):
            if not np.all(np.isfinite(v)):
                raise CorpusFormatError(line, name, "non-finite values")
            if name in dims and dims[name] != v.size:
                raise CorpusFormatError(line, name, "inconsistent vector dimension")
            dims[name] = v.size
        tr = Track(id=int(tid), detections=dets, v_head=v_head, v_body=v_body)
        tr.v_stat = track_stats(tr)
        tracks.append(tr)
    if len({t.id for t in tracks}) != len(tracks):
        raise CorpusFormatError(line, "tracks", "duplicate track ids")
    tracks = cap_tracks(tracks)
    ids = {t.id for t in tracks}

    v_global = np.asarray(_need(obj, "v_global", line, list), dtype=FLOAT)
    sentence = _need(obj, "sentence", line, list)
    if not all(isinstance(t, str) for t in sentence):
        raise CorpusFormatError(line, "sentence", "tokens must be strings")
    mentions = []
    for mraw in _need(obj, "mentions", line, list):
        pos = _need(mraw, "pos", line, int)
        if not 0 <= pos < len(sentence):
            raise CorpusFormatError(line, "pos", "mention position out of range")
        if sentence[pos] not in PERSON_TOKENS:
            raise CorpusFormatError(line, "pos", "mention does not point at a person token")
        gender = _need(mraw, "gender", line, str)
        if gender not in ("M", "F"):
            raise CorpusFormatError(line, "gender", "gender must be 'M' or 'F'")
        gt = _need(mraw, "gt_tracks", line, list)
        for gid in gt:
            if gid not in ids:
                raise CorpusFormatError(line, "gt_tracks",
                                        f"unknown track id {gid} (after capping)")
        coref = mraw.get("coref_prev")
        mentions.append(Mention(pos=pos, char_id=_need(mraw, "char", line),
                                gender=gender, gt_track_ids=list(gt),
                                coref_prev=coref))
    clip = Clip(id=clip_id, tracks=tracks, v_global=v_global,
                sentence=list(sentence), mentions=mentions)
    if "frames" in obj:
        clip.frames = [np.asarray(f, dtype=np.uint8) for f in obj["frames"]]
    return clip


def ingest_jsonl(path):
    """Parse and validate a JSONL corpus; pairs consecutive clips."""
    clips = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(line_no, "<json>", f"invalid JSON: {exc}") from None
            clips.append(_parse_clip(obj, line_no))

    pairs = []
    for k in range(0, len(clips) - 1, 2):
        pairs.append(ClipPair(id=k // 2, prev=clips[k], cur=clips[k + 1]))
    if len(clips) % 2 == 1:
        pairs.append(ClipPair(id=len(clips) // 2, prev=None, cur=clips[-1]))

    meta = {}
    meta_path = str(path) + ".meta.json"
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    if "vocab" in meta:
        vocab = Vocabulary(tuple(meta["vocab"]))
    else:
        seen = set()
        for c in clips:
            seen.update(c.sentence)
        vocab = Vocabulary.build(seen)
    gtb = meta.get("gt_boundaries", {})
    for clip in clips:
        if str(clip.id) in gtb:
            clip.gt_boundaries = list(gtb[str(clip.id)])
    return Corpus(pairs=pairs, vocab=vocab, meta=meta)
