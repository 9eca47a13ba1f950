"""Track data types, box overlap, track statistics, and normalization.

``track_stats`` and ``apply_norm`` take a list of tracks and return one
row per track; ``fit_norm_stats`` reduces the list. A ``Detection``'s box
is center-anchored: x, y are the box center in pixels.
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


@dataclass
class Track:
    id: int
    detections: list
    v_head: np.ndarray
    v_body: np.ndarray
    v_stat: np.ndarray | None = None

    def mean_area(self):
        return float(np.mean([d.w * d.h for d in self.detections]))


def detection_iou(a: Detection, b: Detection):
    """IOU of two detections' boxes, from their top-left corners."""
    ax0, ay0 = a.x - a.w / 2.0, a.y - a.h / 2.0
    bx0, by0 = b.x - b.w / 2.0, b.y - b.h / 2.0
    ix = max(0.0, min(ax0 + a.w, bx0 + b.w) - max(ax0, bx0))
    iy = max(0.0, min(ay0 + a.h, by0 + b.h) - max(ay0, by0))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def track_stats(tracks):
    """11-dim geometry statistics of each track, as one
    ``(len(tracks), STAT_DIM)`` array.

    Layout: [length, mean_w, std_w, mean_h, std_h, mean_cx, std_cx,
    mean_cy, std_cy, mean_score, std_score]; population standard
    deviation, so a single-detection track has zero std entries. A track
    with no detections raises ValueError naming it.

    Tracks of equal length ``n`` are reduced together: their five
    quantities are the rows of one C-contiguous ``(5, g, n)`` array,
    reduced along the last axis, so each row sums in the same order as a
    1-D array of it would. The mean is the sum over ``n``, the std the
    square root of the summed squared deviations over ``n``: ``np.mean``'s
    and ``np.std``'s own steps, so every row is bitwise theirs.
    """
    out = np.empty((len(tracks), STAT_DIM), dtype=FLOAT)
    by_length = {}
    for i, tr in enumerate(tracks):
        if not tr.detections:
            raise ValueError(f"track_stats: track {tr.id} has no detections")
        by_length.setdefault(len(tr.detections), []).append(i)
    for n, rows in by_length.items():
        dets = [d for i in rows for d in tracks[i].detections]
        x = np.array([[d.w for d in dets], [d.h for d in dets], [d.x for d in dets],
                      [d.y for d in dets], [d.score for d in dets]],
                     dtype=FLOAT).reshape(5, len(rows), n)
        mean = x.sum(axis=2) / n
        dev = x - mean[:, :, None]
        dev *= dev
        out[rows, 0] = n
        out[rows, 1::2] = mean.T
        out[rows, 2::2] = np.sqrt(dev.sum(axis=2) / n).T
    return out


@dataclass
class NormStats:
    """Per-dimension mean/std for each feature block, fitted on training data."""
    mean: dict
    std: dict

    BLOCKS = ("v_head", "v_body", "v_stat")


def _rows(tracks, name, caller, d=None):
    """The ``name`` block of every track as one ``(len(tracks), d)`` array,
    ``d`` the first track's width when not given. The blocks are stacked
    in one call; only when that fails, or gives another shape, are the
    tracks walked to raise ValueError naming ``caller`` and the first
    track whose block is missing, not a flat vector or not ``d`` wide."""
    blocks = [getattr(t, name) for t in tracks]
    try:
        rows = np.array(blocks, dtype=FLOAT)
    except ValueError:  # a missing block beside present ones, or blocks of two shapes
        rows = np.empty(0)
    if rows.ndim == 2 and d in (None, rows.shape[1]):
        return rows
    for t, v in zip(tracks, blocks):
        if v is None:
            raise ValueError(f"{caller}: track {t.id} is missing {name}")
        if np.ndim(v) != 1:
            raise ValueError(f"{caller}: track {t.id} has a {np.shape(v)}-shaped {name}, "
                             "not a flat vector")
        if len(v) != (len(blocks[0]) if d is None else d):
            against = (f"the first track's is {len(blocks[0])}" if d is None
                       else f"the norm statistics are {d}")
            raise ValueError(f"{caller}: track {t.id} has a {len(v)}-wide {name}, {against} wide")
    return np.array(blocks, dtype=FLOAT).reshape(len(tracks), d)  # no track: (0, d)


def fit_norm_stats(tracks):
    """Per-dimension mean and std of each feature block over ``tracks``
    (the training split only); constant dimensions get std 1, so
    ``apply_norm`` maps them to zero. A track whose block is missing, not
    a flat vector or not as wide as the first track's raises ValueError
    naming it."""
    if not tracks:
        raise ValueError("fit_norm_stats: empty training split")
    mean, std = {}, {}
    for blk in NormStats.BLOCKS:
        data = _rows(tracks, blk, "fit_norm_stats")
        mean[blk] = data.mean(axis=0)
        sd = data.std(axis=0)
        sd[sd < STD_FLOOR] = 1.0
        std[blk] = sd
    return NormStats(mean=mean, std=std)


def apply_norm(tracks, stats: NormStats, name):
    """The ``name`` block (``v_head``, ``v_body`` or ``v_stat``) of every
    track, standardised with ``stats``, as one ``(len(tracks), d)`` array.
    A track whose block is missing, not a flat vector or not ``d`` wide
    raises ValueError naming it."""
    rows = _rows(tracks, name, "apply_norm", len(stats.mean[name]))
    return (rows - stats.mean[name]) / stats.std[name]
