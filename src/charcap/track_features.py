"""Track data types, box overlap, track statistics, and normalization.

Boxes come in two layouts. A ``Detection`` stores a *center-anchored* box
(x, y are the box center in pixels). Free-standing box tuples, as used by
the IOU helpers, are *corner-anchored* ``(x, y, w, h)`` with (x, y) the
top-left corner.
"""

from dataclasses import dataclass, replace

import numpy as np

from .numerics import FLOAT

STAT_DIM = 11
STD_FLOOR = 1e-8


@dataclass
class Detection:
    t: int
    x: float  # box center
    y: float
    w: float
    h: float
    score: float = 1.0

    def corner_box(self):
        return (self.x - self.w / 2.0, self.y - self.h / 2.0, self.w, self.h)


@dataclass
class Track:
    id: int
    detections: list
    v_head: np.ndarray
    v_body: np.ndarray
    v_stat: np.ndarray | None = None

    def n_frames(self):
        return len({d.t for d in self.detections})

    def mean_area(self):
        return float(np.mean([d.w * d.h for d in self.detections]))


def box_iou(a, b):
    """IOU of two corner-anchored (x, y, w, h) boxes."""
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b
    ix = max(0.0, min(ax0 + aw, bx0 + bw) - max(ax0, bx0))
    iy = max(0.0, min(ay0 + ah, by0 + bh) - max(ay0, by0))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def detection_iou(a: Detection, b: Detection):
    return box_iou(a.corner_box(), b.corner_box())


def track_stats(track: Track):
    """11-dim geometry statistics of a track.

    Layout: [length, mean_w, std_w, mean_h, std_h, mean_cx, std_cx,
    mean_cy, std_cy, mean_score, std_score]; population standard
    deviation, so a single-detection track has zero std entries.
    """
    dets = track.detections
    if not dets:
        raise ValueError("track_stats: track has no detections")
    w = np.array([d.w for d in dets], dtype=FLOAT)
    h = np.array([d.h for d in dets], dtype=FLOAT)
    cx = np.array([d.x for d in dets], dtype=FLOAT)
    cy = np.array([d.y for d in dets], dtype=FLOAT)
    s = np.array([d.score for d in dets], dtype=FLOAT)
    return np.array([
        len(dets),
        w.mean(), w.std(),
        h.mean(), h.std(),
        cx.mean(), cx.std(),
        cy.mean(), cy.std(),
        s.mean(), s.std(),
    ], dtype=FLOAT)


@dataclass
class NormStats:
    """Per-dimension mean/std for each feature block, fitted on training data."""
    mean: dict
    std: dict

    BLOCKS = ("v_head", "v_body", "v_stat")

    def to_json(self):
        return {blk: {"mean": self.mean[blk].tolist(), "std": self.std[blk].tolist()}
                for blk in self.BLOCKS}

    @classmethod
    def from_json(cls, obj):
        mean = {blk: np.asarray(obj[blk]["mean"], dtype=FLOAT) for blk in cls.BLOCKS}
        std = {blk: np.asarray(obj[blk]["std"], dtype=FLOAT) for blk in cls.BLOCKS}
        return cls(mean=mean, std=std)


def _block(track, name):
    v = getattr(track, name)
    if v is None:
        raise ValueError(f"normalize: track {track.id} is missing {name}")
    return np.asarray(v, dtype=FLOAT)


def fit_norm_stats(tracks):
    """Per-dimension mean and std of each feature block over ``tracks``
    (the training split only); constant dimensions get std 1, so
    ``apply_norm`` maps them to zero."""
    if not tracks:
        raise ValueError("fit_norm_stats: empty training split")
    mean, std = {}, {}
    for blk in NormStats.BLOCKS:
        data = np.stack([_block(t, blk) for t in tracks])
        mean[blk] = data.mean(axis=0)
        sd = data.std(axis=0)
        sd[sd < STD_FLOOR] = 1.0
        std[blk] = sd
    return NormStats(mean=mean, std=std)


def apply_norm(track: Track, stats: NormStats):
    return replace(
        track,
        v_head=(_block(track, "v_head") - stats.mean["v_head"]) / stats.std["v_head"],
        v_body=(_block(track, "v_body") - stats.mean["v_body"]) / stats.std["v_body"],
        v_stat=(_block(track, "v_stat") - stats.mean["v_stat"]) / stats.std["v_stat"],
    )
