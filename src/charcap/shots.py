"""Shot-boundary detection between consecutive frames.

Two cues per frame pair, combined with OR so recall stays high:

- Manhattan distance between concatenated per-channel color histograms
  (L1-normalized jointly over the three channels);
- the fraction of corner points from the first frame that survive into
  the second, where a corner survives if its best patch-SSD match within
  a search radius stays below a threshold. Corners come from the
  structure-tensor minimum-eigenvalue response.

Frames are (H, W, 3) uint8 arrays, of one shape within a video. Each is
converted to [0, 1] once, into one ``FrameSignature`` (histogram and gray
image, corners on first read) that both cues of its pairs read.

``detect_boundaries`` evaluates the OR per pair in order: the histogram
distance first, and the survival ratio only for a pair the histogram did
not fire on and only when ``theta_survive > 0`` (a ratio is never below
0). So a cut pair the histogram catches is never searched, and a frame
whose corners no search reads never runs the corner detector.
``pair_features`` computes both cues on every pair.

The survival search tries shifts ring by ring from the centre out and
stops once every corner has matched; within a shot that is usually the
innermost ring, and only cut pairs search the whole radius. A corner
survives if any shift matches, and each shift's SSD is computed exactly
as a full-frame box filter would, so the ratio equals the exhaustive
search's bit for bit.

A boundary index i means a cut between frames i-1 and i.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter, uniform_filter, uniform_filter1d

from .numerics import FLOAT

# histogram bins per channel; level k of 0..255 falls in bin
# min(k * BINS // 255, BINS - 1), which for a power of two is bitwise
# np.histogram(frame / 255, BINS, (0, 1)) (every edge i / BINS is an exact
# double and no level 0 < k < 255 lies on one); for some other values
# (5, 10, 20, 33, ...) np.histogram's float edges put a level one bin off
BINS = 32
PATCH_SIZE = 9
SEARCH_RADIUS = 16
MAX_CORNERS = 200
SSD_THRESHOLD = 0.004  # mean squared gray difference, [0,1] scale
MAX_CANDIDATES = 60  # thresholds fit_thresholds tries per cue
CORNER_EPS = 1e-10
CORNER_WINDOW = 5  # structure-tensor window of the corner response
# shifts per filtered chunk: k = max(1, SHIFT_CHUNK_ELEMS // (h*w)); larger
# temporaries cross glibc's mmap threshold and raise peak RSS
SHIFT_CHUNK_ELEMS = 1 << 13
SYNTH_COLOR_SPREAD = 40.0  # synthetic_cut_video: pattern spread per channel
SYNTH_JITTER = 2.0         # synthetic_cut_video: per-frame pixel noise std


@dataclass
class FrameSignature:
    histogram: np.ndarray  # length 3*BINS, sums to 1
    gray: np.ndarray       # (H, W) channel mean, [0,1] scale

    @cached_property
    def corners(self):
        """(K, 2) integer (row, col) of the top ``MAX_CORNERS`` corners,
        found on first read; a degenerate (uniform) frame has none."""
        resp = min_eig_response(self.gray)
        local_max = resp == maximum_filter(resp, size=3)
        cand = np.argwhere(local_max & (resp > CORNER_EPS))
        scores = resp[cand[:, 0], cand[:, 1]]
        order = np.lexsort((cand[:, 1], cand[:, 0], -scores))[:MAX_CORNERS]
        return cand[order]


def _as_float_rgb(frame):
    f = np.asarray(frame)
    if f.dtype != np.uint8 or f.ndim != 3 or f.shape[2] != 3 or f.size == 0:
        raise ValueError(f"expected a non-empty (H, W, 3) uint8 frame, got {f.dtype} {f.shape}")
    return f / 255.0


def min_eig_response(gray):
    """Smaller eigenvalue of the windowed structure tensor, per pixel."""
    gy, gx = np.gradient(gray)
    a = uniform_filter(gx * gx, size=CORNER_WINDOW)
    b = uniform_filter(gx * gy, size=CORNER_WINDOW)
    c = uniform_filter(gy * gy, size=CORNER_WINDOW)
    half = np.sqrt((a - c) ** 2 + 4.0 * b * b)
    return (a + c - half) / 2.0


def frame_signature(frame):
    """Color histogram and gray image of a frame; its corners are found
    when first read."""
    f = _as_float_rgb(frame)
    level_bin = np.minimum(np.arange(256) * BINS // 255, BINS - 1)
    idx = level_bin[np.asarray(frame)] + np.arange(0, 3 * BINS, BINS)
    hist = np.bincount(idx.ravel(), minlength=3 * BINS).astype(FLOAT)
    hist /= hist.sum()
    return FrameSignature(hist, f.mean(axis=2))


def hist_distance(sig_a: FrameSignature, sig_b: FrameSignature):
    return float(np.abs(sig_a.histogram - sig_b.histogram).sum())


def _ring_offsets(r):
    """Yield every shift with |dy|, |dx| <= r as (dy, dx) arrays, one pair
    per Chebyshev ring max(|dy|, |dx|), nearest ring first. Rings are made
    as they are reached, so an early stop never builds the outer ones."""
    for d in range(r + 1):
        dy, dx = np.mgrid[-d:d + 1, -d:d + 1].reshape(2, -1)
        on_ring = np.maximum(abs(dy), abs(dx)) == d
        yield dy[on_ring], dx[on_ring]


def survival_ratio(sig_a: FrameSignature, sig_b: FrameSignature):
    """Fraction of ``sig_a``'s corners whose best block match in the gray
    image of ``sig_b``, a frame of the same shape, stays under the SSD
    threshold. Without corners the ratio is 1 (nothing was lost).

    Shifts up to SEARCH_RADIUS are searched ring by ring from the centre out,
    a chunk of at most SHIFT_CHUNK_ELEMS elements at a time, and the search
    stops once every corner has matched. A corner survives if any shift
    matches, so the order and the early stop leave the ratio equal to that
    of the exhaustive search; each SSD is bitwise the 2-D ``uniform_filter``
    of its shift, since the stack is filtered along rows, then columns."""
    corners = sig_a.corners
    if len(corners) == 0:
        return 1.0
    ga, gb = sig_a.gray, sig_b.gray
    h, w = ga.shape
    r = SEARCH_RADIUS
    shifted = sliding_window_view(np.pad(gb, r, mode="edge"), (h, w))
    rows = corners[:, 0]
    cols = corners[:, 1]
    lost = np.ones(len(corners), dtype=bool)
    k = max(1, SHIFT_CHUNK_ELEMS // (h * w))
    for dy, dx in _ring_offsets(r):
        for start in range(0, len(dy), k):
            ssd = shifted[r + dy[start:start + k], r + dx[start:start + k]]
            np.subtract(ga, ssd, out=ssd)
            np.square(ssd, out=ssd)
            uniform_filter1d(ssd, PATCH_SIZE, axis=1, output=ssd)
            uniform_filter1d(ssd, PATCH_SIZE, axis=2, output=ssd)
            idx = np.flatnonzero(lost)
            matched = (ssd[:, rows[idx], cols[idx]] <= SSD_THRESHOLD).any(axis=0)
            lost[idx[matched]] = False
            if not lost.any():
                return 1.0
    return float(np.mean(~lost))


def _signatures(frames):
    """One ``FrameSignature`` per frame, each checked as ``pair_features``
    describes."""
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")
    sigs = []
    for k, frame in enumerate(frames):
        try:
            sigs.append(frame_signature(frame))
        except ValueError as exc:
            raise ValueError(f"frame {k}: {exc}") from None
        if sigs[k].gray.shape != sigs[0].gray.shape:
            raise ValueError(f"frame {k}: shape {np.shape(frame)} is not frame 0's")
    return sigs


def pair_features(frames):
    """(histogram distance, survival ratio) for every consecutive pair,
    from one signature per frame. A frame that is not a non-empty (H, W, 3)
    uint8 array shaped like frame 0 raises ``ValueError`` naming it."""
    sigs = _signatures(frames)
    pairs = list(zip(sigs, sigs[1:]))
    return (np.array([hist_distance(a, b) for a, b in pairs]),
            np.array([survival_ratio(a, b) for a, b in pairs]))


def detect_boundaries(frames, theta_hist, theta_survive):
    """Boundary between i-1 and i iff the histogram distance exceeds
    theta_hist OR the survival ratio falls below theta_survive, as plain
    ints. The OR short-circuits per pair: the survival ratio is computed
    only for a pair the histogram did not fire on, and only when
    theta_survive > 0. Every frame is checked as ``pair_features`` checks
    it before any pair is compared; theta_hist = inf switches the
    histogram cue off, and a NaN threshold is rejected."""
    if not theta_hist >= 0:
        raise ValueError(f"theta_hist must be >= 0, got {theta_hist}")
    if not 0.0 <= theta_survive <= 1.0:
        raise ValueError(f"theta_survive must be in [0, 1], got {theta_survive}")
    sigs = _signatures(frames)
    return [i for i, (a, b) in enumerate(zip(sigs, sigs[1:]), 1)
            if hist_distance(a, b) > theta_hist
            or (theta_survive > 0 and survival_ratio(a, b) < theta_survive)]


@dataclass
class ShotThresholds:
    theta_hist: float
    theta_survive: float
    f_score: float  # pooled F1 on the fitting set


def _f1(tp, fp, fn):
    """Boundary F1 from counts, elementwise over arrays; 1 when there is
    nothing to find and nothing was found."""
    tp, fp, fn = (np.asarray(x, dtype=FLOAT) for x in (tp, fp, fn))
    denom = 2.0 * tp + fp + fn
    return np.divide(2.0 * tp, denom, out=np.ones_like(denom), where=denom > 0)


def boundary_f_score(predicted, actual):
    pred = set(predicted)
    act = set(actual)
    return float(_f1(len(pred & act), len(pred - act), len(act - pred)))


def _candidates(values):
    vals = np.unique(values)
    mids = (vals[:-1] + vals[1:]) / 2.0 if len(vals) > 1 else np.empty(0)
    cand = np.concatenate([mids, [vals.min() - 1e-6, vals.max() + 1e-6]])
    cand = np.unique(cand)
    if len(cand) > MAX_CANDIDATES:
        idx = np.linspace(0, len(cand) - 1, MAX_CANDIDATES).round().astype(int)
        cand = cand[idx]
    return cand


def fit_thresholds(videos):
    """Grid-search (theta_hist, theta_survive) maximizing pooled boundary
    F1 over labeled videos: list of (frames, boundary index list). Ties go
    to the smallest theta_hist, then the smallest theta_survive."""
    if len(videos) == 0:
        raise ValueError("need at least one labeled video")
    dists, survs, labels = [], [], []
    for v, (frames, gt) in enumerate(videos):
        if len(frames) < 2:
            raise ValueError(f"video {v}: need at least 2 frames, got {len(frames)}")
        for b in gt:
            if not 1 <= b <= len(frames) - 1:
                raise ValueError(f"video {v}: boundary index {b} outside "
                                 f"1..{len(frames) - 1}")
        try:
            d, s = pair_features(frames)
        except ValueError as exc:
            raise ValueError(f"video {v}: {exc}") from None
        dists.append(d)
        survs.append(s)
        lab = np.zeros(len(frames) - 1, dtype=bool)
        for b in gt:
            lab[b - 1] = True
        labels.append(lab)
    dists = np.concatenate(dists)
    survs = np.concatenate(survs)
    labels = np.concatenate(labels)

    hist_cand = _candidates(dists)
    surv_cand = np.clip(_candidates(survs), 0.0, 1.0)
    surv_cand = np.unique(np.concatenate([surv_cand, [0.0]]))  # 0 disables the cue
    # fired[i, j, n]: pair n fires at (hist_cand[i], surv_cand[j])
    fired = ((dists > hist_cand[:, None])[:, None, :]
             | (survs < surv_cand[:, None])[None, :, :])
    tp = (fired & labels).sum(axis=2)
    f1 = _f1(tp, fired.sum(axis=2) - tp, labels.sum() - tp)
    i, j = np.unravel_index(np.argmax(f1), f1.shape)  # first best in (i, j) order
    return ShotThresholds(theta_hist=float(hist_cand[i]), theta_survive=float(surv_cand[j]),
                          f_score=float(f1[i, j]))


def synthetic_cut_video(rng, n_frames, n_cuts, height=24, width=32):
    """Piecewise test video: each segment drifts a colored noise pattern
    (+-SYNTH_COLOR_SPREAD per channel) around a segment-specific mean
    color, plus SYNTH_JITTER pixel noise; cuts switch patterns. Returns
    (frames, boundary indices)."""
    n_cuts = min(n_cuts, max(0, n_frames - 1))
    if n_cuts > 0:
        cuts = sorted(rng.choice(np.arange(1, n_frames), size=n_cuts,
                                 replace=False).tolist())
    else:
        cuts = []
    frames = []
    for s, e in zip([0] + cuts, cuts + [n_frames]):
        mean = rng.uniform(40.0, 215.0, size=3)
        base = mean[None, None, :] + rng.uniform(
            -SYNTH_COLOR_SPREAD, SYNTH_COLOR_SPREAD, size=(height, width, 3))
        dx = int(rng.integers(-1, 2))
        for i in range(e - s):
            img = np.roll(base, shift=dx * i, axis=1)
            img = img + rng.normal(0.0, SYNTH_JITTER, size=img.shape)
            frames.append(np.clip(img, 0, 255).astype(np.uint8))
    return frames, cuts
