"""Track data types, box overlap, track statistics, and normalization.

``track_stats`` and ``apply_norm`` take a list of tracks and return one
row per track; ``fit_norm_stats`` reduces the list.

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


def _block(track, name, caller):
    v = getattr(track, name)
    if v is None:
        raise ValueError(f"{caller}: track {track.id} is missing {name}")
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
        blocks = [_block(t, blk, "fit_norm_stats") for t in tracks]
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
    blocks = [_block(t, name, "apply_norm") for t in tracks]
    try:
        rows = np.array(blocks, dtype=FLOAT).reshape(len(tracks), d)
    except ValueError:  # some block is not d wide
        track, v = next((t, v) for t, v in zip(tracks, blocks) if v.shape != (d,))
        raise ValueError(f"apply_norm: track {track.id} has a {v.size}-wide {name}, "
                         f"the norm statistics are {d} wide") from None
    return (rows - stats.mean[name]) / stats.std[name]
