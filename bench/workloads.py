"""The benchmark's three seeded workloads and the checks on their outputs.

Each workload makes its inputs from the seed in ``setup`` (untimed apart
from ``setup_s``), runs one round of stage calls in ``run_round`` (timed),
and checks a round's outputs in ``check`` against values it computes
itself or against properties the method must have. Program functions are
always reached through their module (``corpus.ingest_jsonl``), so the
tracer's wrappers see every call.

- ``chain``: the paper's full chain on a small corpus with frames.
- ``video``: one long video; only shot detection and tracking work.
- ``crowded``: many distractor tracks, no frames; linker and decoder work.
"""

import hashlib
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from charcap import corpus, decoder, linker, multicut, shots
from charcap.track_features import Detection


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


class Ops:
    """Runs the stage calls of one round, counting and timing each."""

    def __init__(self):
        self.done = 0
        self.seconds = defaultdict(list)

    def __call__(self, stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[stage].append(time.perf_counter() - t0)
        self.done += 1
        return out

    def total(self, stage):
        return sum(self.seconds[stage])


# ---------------------------------------------------------------------------
# scores computed by the benchmark itself
# ---------------------------------------------------------------------------

def boundary_counts(predicted, actual):
    pred, act = set(predicted), set(actual)
    return len(pred & act), len(pred - act), len(act - pred)


def f1(tp, fp, fn):
    return 2.0 * tp / (2.0 * tp + fp + fn) if (tp + fp + fn) else 1.0


def _pairs(n):
    return n * (n - 1) // 2


def same_track_counts(truth, built):
    """Pairwise same-track counts (tp, fp, fn) over detections.

    ``truth`` maps detection id -> planted identity; ``built`` maps
    detection id -> built track id, with dropped detections absent.
    """
    joint = Counter((truth[d], b) for d, b in built.items())
    tp = sum(_pairs(k) for k in joint.values())
    pred = sum(_pairs(k) for k in Counter(built.values()).values())
    true = sum(_pairs(k) for k in Counter(truth.values()).values())
    return tp, pred - tp, true - tp


def digest(obj):
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:16]


def loss_falls(trained):
    hist = trained.history
    require(len(hist) >= 2 and hist[-1][0] < hist[0][0],
            f"decoder loss did not fall: first {hist[0][0]!r}, last {hist[-1][0]!r}")


def check_predictions(pair, grounding, decoded):
    cur_ids = {t.id for t in pair.cur.tracks}
    prev_ids = {0} | {tid for tid, _, _ in grounding}
    for p in decoded.predictions:
        require(p.c_track in cur_ids,
                f"pair {pair.id}: predicted current track {p.c_track} is not in the pair")
        require(p.p_track in prev_ids,
                f"pair {pair.id}: predicted previous track {p.p_track} is not a grounded one")


def decoder_scores(pairs, decoded):
    """Token, grounding and co-reference accuracy of greedy decodes against
    the planted sentences, ``gt_track_ids`` and ``coref_prev``."""
    hit_w = n_w = hit_g = hit_c = n_p = 0
    for pair, dec in zip(pairs, decoded):
        ref, hyp = pair.cur.sentence, dec.tokens
        n_w += max(len(ref), len(hyp))
        hit_w += sum(a == b for a, b in zip(ref, hyp))
        prev_track = {}
        if pair.prev is not None:
            for m in sorted(pair.prev.mentions, key=lambda m: m.pos):
                if m.gt_track_ids:
                    prev_track.setdefault(m.char_id, m.gt_track_ids[0])
        by_pos = {m.pos: m for m in pair.cur.mentions}
        for p in dec.predictions:
            n_p += 1
            m = by_pos.get(p.tau)
            if m is None:
                continue
            hit_g += p.c_track in m.gt_track_ids
            want = prev_track.get(m.coref_prev, 0) if m.coref_prev is not None else 0
            hit_c += p.p_track == want
    return {
        "word_acc": hit_w / n_w,
        "grounding_acc": hit_g / n_p if n_p else 0.0,
        "coref_acc": hit_c / n_p if n_p else 0.0,
    }


def check_attention(alpha, feats):
    """Sums to 1 over the valid cells and is exactly 0 on padding."""
    valid = np.zeros(alpha.shape, dtype=bool)
    valid[0] = feats.cur_valid
    valid[1:] = feats.prev_valid[:, None] & feats.cur_valid[None, :]
    require(abs(alpha[valid].sum() - 1.0) < 1e-9, "attention does not sum to 1")
    require(np.all(alpha[~valid] == 0.0), "attention is not 0 on padding")


def padded(feats, extra_cur=3, extra_prev=1):
    """The same pair with padding slots added after the real rows."""
    def pad(a, k):
        return np.vstack([a, np.zeros((k, a.shape[1]), dtype=a.dtype)])
    return decoder.PairFeatures(
        cur_head=pad(feats.cur_head, extra_cur), cur_body=pad(feats.cur_body, extra_cur),
        cur_stat=pad(feats.cur_stat, extra_cur), prev_head=pad(feats.prev_head, extra_prev),
        v_global=feats.v_global,
        cur_valid=np.concatenate([feats.cur_valid, np.zeros(extra_cur, dtype=bool)]),
        prev_valid=np.concatenate([feats.prev_valid, np.zeros(extra_prev, dtype=bool)]))


def check_padding(params, feats, seed):
    """Padding slots get exactly zero attention and leave the rest unchanged."""
    h = np.random.default_rng(seed).normal(0.0, 0.5, size=params["W_h"].shape[1])
    alpha, v, _ = decoder.attention_step(params, h, feats)
    pf = padded(feats)
    alpha_p, v_p, _ = decoder.attention_step(params, h, pf)
    check_attention(alpha_p, pf)
    C, P = alpha.shape[1], alpha.shape[0]
    require(np.allclose(alpha_p[:P, :C], alpha, rtol=0, atol=1e-12),
            "padding changed the attention on real cells")
    require(np.allclose(v_p, v, rtol=0, atol=1e-12),
            "padding changed the grounded input")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def flatten(tracks):
    """Filtered detections of planted tracks with aligned appearance rows
    and each detection's planted track id."""
    dets, head, body, truth = [], [], [], {}
    for tr in tracks:
        for d in multicut.filter_detections(tr.detections):
            dets.append(d)
            head.append(tr.v_head)
            body.append(tr.v_body)
            truth[id(d)] = tr.id
    return dets, head, body, truth


def pairwise_samples(groups):
    """Labelled consecutive-frame detection pairs; ``groups`` is a list of
    (detections, identity per detection) within one shot each."""
    out = []
    for dets, ident in groups:
        by_t = defaultdict(list)
        for d, i in zip(dets, ident):
            by_t[d.t].append((d, i))
        for t, here in by_t.items():
            for a, ia in here:
                for b, ib in by_t.get(t + 1, ()):
                    out.append((multicut.pairwise_feature(a, b), ia == ib))
    return out


def built_labels(tracks):
    return {id(d): t.id for t in tracks for d in t.detections}


def tracking_rates(detections, frames, rounds):
    return {
        "track_dets_per_s": (detections / statistics.median(
            r.total("build_tracks") for r in rounds), "detections/s"),
        "shot_frames_per_s": (frames / statistics.median(
            r.total("detect_boundaries") for r in rounds), "frames/s"),
    }


def decoder_rates(out, epochs, rounds):
    return {
        "train_pairs_per_s": (out["train_pairs"] * epochs / statistics.median(
            r.total("train_decoder") for r in rounds), "pairs/s"),
        "decode_ms_p50": (1000.0 * statistics.median(
            t for r in rounds for t in r.seconds["decode_pair"]), "ms"),
    }


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

class Chain:
    """Ingest, shots, tracking, linking, decoder training and decoding.

    Every clip holds one described character and no distractor. Two
    characters in one clip are both placed near the frame centre by the
    generator and level 1 joins by geometry alone, so on some seeds they
    come back as one track (see CHANGES.md); the chain leaves such clips
    out so that its checks hold on every seed. Each clip is tracked as one
    shot (see CHANGES.md on cuts inside character runs).
    """

    name = "chain"
    CONFIG = dict(n_pairs=4, two_mention_fraction=0.0, max_distractors=0, emit_frames=True)
    TRAIN = 2
    LINKER = dict(epochs=30)
    DECODER = dict(epochs=15)
    SHOT_F1_FLOOR = 0.5
    LINK_ACC_FLOOR = 0.5

    def setup(self, seed, workdir):
        self.source = corpus.generate_corpus(corpus.CorpusConfig(**self.CONFIG), seed)
        self.path = os.path.join(workdir, "chain.jsonl")
        corpus.export_jsonl(self.source, self.path)
        self.linker_config = linker.LinkerConfig(**self.LINKER)
        self.decoder_config = decoder.DecoderConfig(**self.DECODER)
        n = self.CONFIG["n_pairs"]
        self.ops_per_round = 7 + 4 * n + (n - self.TRAIN)

    def run_round(self, ops):
        c = ops("ingest", corpus.ingest_jsonl, self.path)
        train_clips = [cl for p in c.pairs[:self.TRAIN] for cl in (p.prev, p.cur)]
        th = ops("fit_thresholds", shots.fit_thresholds,
                 [(cl.frames, cl.gt_boundaries) for cl in train_clips])
        boundaries = [ops("detect_boundaries", shots.detect_boundaries,
                          cl.frames, th.theta_hist, th.theta_survive) for cl in c.clips]

        flat = {cl.id: flatten(cl.tracks) for cl in c.clips}
        # one person per clip: overlay the train clips two by two so that
        # the pairwise model also sees consecutive-frame pairs of two people
        groups = []
        for a, b in zip(train_clips[0::2], train_clips[1::2]):
            dets = flat[a.id][0] + flat[b.id][0]
            groups.append((dets, [(a.id, flat[a.id][3][id(d)]) for d in flat[a.id][0]]
                           + [(b.id, flat[b.id][3][id(d)]) for d in flat[b.id][0]]))
        samples = pairwise_samples(groups)
        model = ops("fit_pairwise_model", multicut.fit_pairwise_model, samples)
        built = {}
        for cl in c.clips:
            dets, head, body, _ = flat[cl.id]
            built[cl.id] = ops("build_tracks", multicut.build_tracks, dets, [], model,
                               head, body_appearance=body)

        tracked = corpus.Corpus(
            [corpus.ClipPair(p.id, self._tracked(p.prev, built[p.prev.id]),
                             self._tracked(p.cur, built[p.cur.id])) for p in c.pairs],
            c.vocab, c.meta)
        lk = ops("train_linker", linker.train_linker, tracked, self.linker_config)
        link_acc = ops("linking_accuracy", linker.linking_accuracy, lk, tracked)
        sup = ops("build_attention_gt", linker.build_attention_gt, lk, tracked)
        train, held = tracked.split(self.TRAIN)
        td = ops("train_decoder", decoder.train_decoder, train, sup, self.decoder_config)
        by_pair = {s.pair_id: s for s in sup}
        decoded = [ops("decode_pair", decoder.decode_pair, td, p, by_pair[p.id].prev_grounding)
                   for p in held.pairs]
        return dict(corpus=c, boundaries=boundaries, flat=flat, built=built,
                    tracked=tracked, link_acc=link_acc, sup=by_pair, held=held,
                    trained=td, decoded=decoded, train_pairs=len(train.pairs))

    @staticmethod
    def _tracked(clip, tracks):
        """The clip with built tracks; mentions point at the built track
        that holds exactly the planted track's detections, if any."""
        owner = built_labels(tracks)
        mentions = []
        for m in clip.mentions:
            gt = []
            for tid in m.gt_track_ids:
                ids = {id(d) for d in clip.track_by_id(tid).detections}
                hits = {owner.get(i) for i in ids}
                if len(hits) == 1 and None not in hits:
                    b = hits.pop()
                    if {id(d) for d in next(t for t in tracks if t.id == b).detections} == ids:
                        gt.append(b)
            mentions.append(corpus.Mention(m.pos, m.char_id, m.gender, gt, m.coref_prev))
        return corpus.Clip(id=clip.id, tracks=tracks, v_global=clip.v_global,
                           sentence=clip.sentence, mentions=mentions)

    def check(self, out):
        c = out["corpus"]
        # ingest(export(c)) reproduces the generated corpus bit for bit
        require(len(c.pairs) == len(self.source.pairs), "ingest changed the pair count")
        for a, b in zip(self.source.clips, c.clips):
            require(a.id == b.id and a.sentence == b.sentence, f"clip {a.id}: sentence differs")
            require([(m.pos, m.char_id, m.gender, m.gt_track_ids, m.coref_prev) for m in a.mentions]
                    == [(m.pos, m.char_id, m.gender, m.gt_track_ids, m.coref_prev)
                        for m in b.mentions], f"clip {a.id}: mentions differ")
            require([t.id for t in a.tracks] == [t.id for t in b.tracks],
                    f"clip {a.id}: track ids differ")
            require(a.v_global.tobytes() == b.v_global.tobytes(), f"clip {a.id}: v_global differs")
            for ta, tb in zip(a.tracks, b.tracks):
                require(ta.v_head.tobytes() == tb.v_head.tobytes()
                        and ta.v_body.tobytes() == tb.v_body.tobytes(),
                        f"clip {a.id} track {ta.id}: feature vectors differ")
                require([(d.t, d.x, d.y, d.w, d.h, d.score) for d in ta.detections]
                        == [(d.t, d.x, d.y, d.w, d.h, d.score) for d in tb.detections],
                        f"clip {a.id} track {ta.id}: detections differ")

        tp = fp = fn = 0
        for cl, b in zip(c.clips, out["boundaries"]):
            x = boundary_counts(b, cl.gt_boundaries)
            tp, fp, fn = tp + x[0], fp + x[1], fn + x[2]
        shot_f1 = f1(tp, fp, fn)
        require(shot_f1 >= self.SHOT_F1_FLOOR, f"boundary F1 {shot_f1:.3f} below the floor")

        tp = fp = fn = 0
        for cl in c.clips:
            built = out["built"][cl.id]
            x = same_track_counts(out["flat"][cl.id][3], built_labels(built))
            tp, fp, fn = tp + x[0], fp + x[1], fn + x[2]
        for pair in out["tracked"].pairs:
            for cl in (pair.prev, pair.cur):
                for m in cl.mentions:
                    require(len(m.gt_track_ids) == 1,
                            f"clip {cl.id}: the planted track of mention {m.pos} "
                            "is not exactly one built track")
        track_f1 = f1(tp, fp, fn)

        link_acc = out["link_acc"]
        require(link_acc >= self.LINK_ACC_FLOOR, f"linker accuracy {link_acc:.3f} below the floor")
        loss_falls(out["trained"])
        for pair, dec in zip(out["held"].pairs, out["decoded"]):
            grounding = out["sup"][pair.id].prev_grounding
            check_predictions(pair, grounding, dec)
            feats = decoder.pair_features(pair, grounding, out["trained"].norm,
                                          out["trained"].config)
            for alpha in dec.alphas:
                check_attention(alpha, feats)
        return {"shot_f1": shot_f1, "track_f1": track_f1, "link_acc": link_acc}

    def fingerprint(self, out):
        return digest((
            out["boundaries"],
            [[[(d.t, d.x) for d in t.detections] for t in out["built"][cl.id]]
             for cl in out["corpus"].clips],
            out["trained"].history,
            [(d.tokens, [(p.tau, p.c_track, p.p_track) for p in d.predictions])
             for d in out["decoded"]],
        ))

    def stage_metrics(self, out, rounds):
        frames = sum(len(cl.frames) for cl in self.source.clips)
        dets = sum(len(d) for d, _, _, _ in out["flat"].values())
        return {**decoder_rates(out, self.decoder_config.epochs, rounds),
                **tracking_rates(dets, frames, rounds)}


# ---------------------------------------------------------------------------
# video
# ---------------------------------------------------------------------------

class Video:
    """One long video with planted cuts and a few persistent characters.

    Shot lengths are a fixed multiset whose order the seed shuffles, and
    every character has one detection per frame of every shot, so level-1
    graphs hold ``CHARACTERS`` x shot-length nodes (well past the
    24-node deep-escape limit of the solver) and level 2 must merge each
    character's shots by appearance alone: character positions are
    reshuffled in every shot. Thresholds and the pairwise model are fitted
    on a shorter training video made the same way.
    """

    name = "video"
    SHOT_LENGTHS = (9, 10, 11, 12)
    TRAIN_SHOT_LENGTHS = (8, 9)
    CHARACTERS = 3
    FRAME_PX = (36, 48)          # rendered frame, rows x columns
    FRAME_BOX = (640.0, 360.0)   # detection coordinate frame, width x height
    D_HEAD = 64
    SIGMA = 0.05

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 7001])
        self.centers = rng.normal(0.0, 1.0, size=(self.CHARACTERS, self.D_HEAD))
        self.train = self._video(rng, self.TRAIN_SHOT_LENGTHS)
        self.video = self._video(rng, self.SHOT_LENGTHS)
        self.ops_per_round = 4

    def _video(self, rng, lengths):
        lengths = [lengths[i] for i in rng.permutation(len(lengths))]
        frames, cuts, dets, head, who = [], [], [], [], []
        width, height = self.FRAME_BOX
        lane = width / self.CHARACTERS
        t = 0
        colour = None
        for k, n in enumerate(lengths):
            if k:
                cuts.append(t)
            shot_frames, colour = self._shot(rng, n, colour if k else None)
            frames.extend(shot_frames)
            for slot, ch in enumerate(rng.permutation(self.CHARACTERS)):
                cx = (slot + 0.5) * lane + rng.normal(0.0, lane / 10.0)
                cy = height / 2.0 + rng.normal(0.0, height / 10.0)
                w = rng.uniform(50.0, 70.0)
                vx, vy = rng.normal(0.0, 1.5, size=2)
                for i in range(n):
                    dets.append(Detection(
                        t=t + i, x=cx + vx * i + rng.normal(0.0, 0.5),
                        y=cy + vy * i + rng.normal(0.0, 0.5),
                        w=w * rng.uniform(0.97, 1.03), h=w * rng.uniform(0.97, 1.03),
                        score=float(rng.uniform(0.7, 1.0))))
                    head.append(self.centers[ch] + rng.normal(0.0, self.SIGMA, self.D_HEAD))
                    who.append(int(ch))
            t += n
        return dict(frames=frames, cuts=cuts, dets=dets, head=np.array(head), who=who,
                    starts=[0] + cuts, lengths=lengths)

    def _shot(self, rng, n, previous):
        """Frames of one shot whose mean colour is far from the previous
        shot's. ``synthetic_cut_video`` spreads each channel +-40 around the
        shot's mean, so a cut's histogram distance is about
        (2/3) * sum_c min(|d_c|, 80) / 80 for mean differences d_c; a sum of
        at least 130 keeps every cut above 1.08, above any threshold fitted
        between within-shot distances (~0.05) and cut distances (<= 2).
        Cuts between similar shots are left out: see CHANGES.md on
        ``fit_thresholds`` disabling the survival cue."""
        while True:
            frames, _ = shots.synthetic_cut_video(rng, n, 0, height=self.FRAME_PX[0],
                                                  width=self.FRAME_PX[1])
            colour = frames[0].reshape(-1, 3).mean(axis=0)
            if previous is None or np.minimum(abs(colour - previous), 80.0).sum() >= 130.0:
                return frames, colour

    def run_round(self, ops):
        tr, v = self.train, self.video
        th = ops("fit_thresholds", shots.fit_thresholds, [(tr["frames"], tr["cuts"])])
        bounds = ops("detect_boundaries", shots.detect_boundaries, v["frames"],
                     th.theta_hist, th.theta_survive)
        groups = []
        for s, n in zip(tr["starts"], tr["lengths"]):
            idx = [i for i, d in enumerate(tr["dets"]) if s <= d.t < s + n]
            groups.append(([tr["dets"][i] for i in idx], [tr["who"][i] for i in idx]))
        model = ops("fit_pairwise_model", multicut.fit_pairwise_model, pairwise_samples(groups))
        # every detection passes filter_detections (score >= 0.7, sides >= 48)
        tracks = ops("build_tracks", multicut.build_tracks, v["dets"], bounds, model, v["head"])
        return dict(boundaries=bounds, tracks=tracks)

    def check(self, out):
        v = self.video
        require(out["boundaries"] == v["cuts"],
                f"detected cuts {out['boundaries']} differ from planted {v['cuts']}")
        truth = {id(d): w for d, w in zip(v["dets"], v["who"])}
        owner = built_labels(out["tracks"])
        for ch in range(self.CHARACTERS):
            mine = [d for d, w in zip(v["dets"], v["who"]) if w == ch]
            holders = {owner.get(id(d)) for d in mine} - {None}
            require(len(holders) == 1, f"character {ch} is split over {len(holders)} tracks")
            held = holders.pop()
            track = next(t for t in out["tracks"] if t.id == held)
            require(all(truth[id(d)] == ch for d in track.detections),
                    f"character {ch}'s track holds other characters")
            shots_hit = {sum(d.t >= c for c in v["cuts"]) for d in track.detections}
            require(len(shots_hit) == len(v["lengths"]),
                    f"character {ch}'s track misses {len(v['lengths']) - len(shots_hit)} shots")
        return {
            "shot_f1": f1(*boundary_counts(out["boundaries"], v["cuts"])),
            "track_f1": f1(*same_track_counts(truth, owner)),
        }

    def fingerprint(self, out):
        return digest((out["boundaries"],
                       [[(d.t, d.x) for d in t.detections] for t in out["tracks"]]))

    def stage_metrics(self, out, rounds):
        return tracking_rates(len(self.video["dets"]), len(self.video["frames"]), rounds)


# ---------------------------------------------------------------------------
# crowded
# ---------------------------------------------------------------------------

class Crowded:
    """Many distractors, planted tracks, no frames: linker, decoder training,
    a checkpoint round trip and decoding of held-out pairs.

    Clips carry up to 62 tracks, so some exceed ``C_MAX`` and the decoder's
    cap runs. The corpus is not ingested: ingest would cap the tracks by
    length, which hides that ``decoder.pair_features`` caps by position
    (see CHANGES.md).
    """

    name = "crowded"
    CONFIG = dict(n_pairs=32, n_characters=70, max_distractors=60)
    TRAIN = 24
    LINKER = dict(epochs=20)
    DECODER = dict(epochs=8)

    def setup(self, seed, workdir):
        self.corpus = corpus.generate_corpus(corpus.CorpusConfig(**self.CONFIG), seed)
        self.path = os.path.join(workdir, "crowded.ckpt")
        self.linker_config = linker.LinkerConfig(**self.LINKER)
        self.decoder_config = decoder.DecoderConfig(**self.DECODER)
        self.ops_per_round = 6 + (self.CONFIG["n_pairs"] - self.TRAIN)

    def run_round(self, ops):
        c = self.corpus
        lk = ops("train_linker", linker.train_linker, c, self.linker_config)
        link_acc = ops("linking_accuracy", linker.linking_accuracy, lk, c)
        sup = ops("build_attention_gt", linker.build_attention_gt, lk, c)
        train, held = c.split(self.TRAIN)
        td = ops("train_decoder", decoder.train_decoder, train, sup, self.decoder_config)
        ops("save_checkpoint", decoder.save_checkpoint, self.path, td)
        loaded = ops("load_checkpoint", decoder.load_checkpoint, self.path)
        by_pair = {s.pair_id: s for s in sup}
        decoded = [ops("decode_pair", decoder.decode_pair, loaded, p, by_pair[p.id].prev_grounding)
                   for p in held.pairs]
        return dict(trained=td, loaded=loaded, sup=by_pair, held=held, decoded=decoded,
                    train_pairs=len(train.pairs), link_acc=link_acc)

    def check(self, out):
        td, loaded = out["trained"], out["loaded"]
        require(sorted(td.params) == sorted(loaded.params), "checkpoint changed the weight names")
        for k, v in td.params.items():
            w = loaded.params[k]
            require(v.shape == w.shape and v.dtype == w.dtype and v.tobytes() == w.tobytes(),
                    f"checkpoint round trip changed {k}")
        require(loaded.vocab.tokens == td.vocab.tokens, "checkpoint changed the vocabulary")
        loss_falls(td)
        for n, pair in enumerate(out["held"].pairs):
            grounding = out["sup"][pair.id].prev_grounding
            dec = out["decoded"][n]
            again = decoder.decode_pair(td, pair, grounding)
            require(again.tokens == dec.tokens and
                    [(p.tau, p.cell) for p in again.predictions]
                    == [(p.tau, p.cell) for p in dec.predictions],
                    f"pair {pair.id}: the loaded checkpoint decodes differently")
            check_predictions(pair, grounding, dec)
            feats = decoder.pair_features(pair, grounding, loaded.norm, loaded.config)
            for alpha in dec.alphas:
                check_attention(alpha, feats)
            check_padding(loaded.params, feats, n)
        scores = decoder_scores(out["held"].pairs, out["decoded"])
        scores["link_acc"] = out["link_acc"]
        return scores

    def fingerprint(self, out):
        return digest((out["trained"].history,
                       [(d.tokens, [(p.tau, p.c_track, p.p_track) for p in d.predictions])
                        for d in out["decoded"]]))

    def stage_metrics(self, out, rounds):
        return decoder_rates(out, self.decoder_config.epochs, rounds)


WORKLOADS = {w.name: w for w in (Chain, Video, Crowded)}
