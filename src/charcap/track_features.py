"""Track data types, box overlap, track statistics, and normalization.

Boxes come in two layouts. A ``Detection`` stores a *center-anchored* box
(x, y are the box center in pixels). Free-standing box tuples, as used by
the IOU helpers, are *corner-anchored* ``(x, y, w, h)`` with (x, y) the
top-left corner.
"""

from dataclasses import dataclass

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

    The five quantities are the rows of one C-contiguous ``(5, n)`` array,
    reduced along axis 1, so each row sums in the same order as a 1-D
    array of it would (an axis-0 reduction of ``(n, 5)`` would not).
    """
    dets = track.detections
    if not dets:
        raise ValueError("track_stats: track has no detections")
    rows = np.array([[d.w for d in dets], [d.h for d in dets], [d.x for d in dets],
                     [d.y for d in dets], [d.score for d in dets]], dtype=FLOAT)
    out = np.empty(STAT_DIM, dtype=FLOAT)
    out[0] = len(dets)
    out[1::2] = rows.mean(axis=1)
    out[2::2] = rows.std(axis=1)
    return out


@dataclass
class NormStats:
    """Per-dimension mean/std for each feature block, fitted on training data."""
    mean: dict
    std: dict

    BLOCKS = ("v_head", "v_body", "v_stat")


def _block(track, name):
    v = getattr(track, name)
    if v is None:
        raise ValueError(f"normalize: track {track.id} is missing {name}")
    return np.asarray(v, dtype=FLOAT)


def fit_norm_stats(tracks):
    """Per-dimension mean and std of each feature block over ``tracks``
    (the training split only); constant dimensions get std 1, so
    ``apply_norm`` maps them to zero. A track whose block is not as wide
    as the first track's raises ValueError naming it."""
    if not tracks:
        raise ValueError("fit_norm_stats: empty training split")
    mean, std = {}, {}
    for blk in NormStats.BLOCKS:
        blocks = [_block(t, blk) for t in tracks]
        try:
            data = np.stack(blocks)
        except ValueError:  # some block is not as wide as the first
            track, v = next((t, v) for t, v in zip(tracks, blocks) if v.shape != blocks[0].shape)
            raise ValueError(f"fit_norm_stats: track {track.id} has a {v.size}-wide {blk}, "
                             f"the first track's is {blocks[0].size} wide") from None
        mean[blk] = data.mean(axis=0)
        sd = data.std(axis=0)
        sd[sd < STD_FLOOR] = 1.0
        std[blk] = sd
    return NormStats(mean=mean, std=std)


def apply_norm(tracks, stats: NormStats, name):
    """The ``name`` block (``v_head``, ``v_body`` or ``v_stat``) of every
    track, standardised with ``stats``, as one ``(len(tracks), d)`` array.
    A track missing the block, or whose block is not ``d`` wide, raises
    ValueError naming it."""
    d = len(stats.mean[name])
    blocks = [_block(t, name) for t in tracks]
    try:
        rows = np.array(blocks, dtype=FLOAT).reshape(len(tracks), d)
    except ValueError:  # some block is not d wide
        track, v = next((t, v) for t, v in zip(tracks, blocks) if v.shape != (d,))
        raise ValueError(f"apply_norm: track {track.id} has a {v.size}-wide {name}, "
                         f"the norm statistics are {d} wide") from None
    return (rows - stats.mean[name]) / stats.std[name]
