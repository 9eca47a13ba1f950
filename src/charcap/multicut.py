"""Two-level clustering tracker over signed pairwise costs.

Level 1 groups head detections on consecutive frames within a shot, with
edge costs from a logistic join model over geometric pair features.
Level 2 groups the surviving tracks across shots by appearance, with edge
costs cosine_similarity - BETA on mean-pooled head vectors.

``solve_multicut`` maximizes the total intra-cluster cost (positive cost
rewards joining, negative rewards cutting). It splits the nodes into the
connected components of the positive-edge graph, which an optimal
partition never joins, and solves each component alone: a component with
no negative internal edge is one cluster; any other gets greedy edge
contraction, then one local-search move repeated to a local optimum, then
perturbation restarts. The move is a Kernighan-Lin trajectory on the
node-to-cluster affinity matrix: it moves the best not-yet-moved node,
even at a loss, once per node, and keeps the best prefix. The tests'
exactness oracle for small instances, which enumerates all set
partitions, is ``brute_force_multicut`` in ``tests/references.py``.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .numerics import FLOAT, _is_finite, rng_stream
from .track_features import Detection, Track, detection_iou, track_stats

MIN_DET_SCORE = 0.5
MIN_DET_SIDE = 40.0
MIN_TRACK_FRAMES = 5
BETA = 0.5  # level-2 cosine similarity at which joining and cutting tie
FIT_ITERS = 2000  # gradient steps of fit_pairwise_model
RESTARTS = 16  # perturbation restarts per searched component
PAIR_FEATURES = 8  # length of a pairwise_feature vector


def filter_detections(detections):
    """Raw-detection gate: score >= 0.5 and both box sides >= 40 px."""
    return [d for d in detections
            if d.score >= MIN_DET_SCORE and d.w >= MIN_DET_SIDE and d.h >= MIN_DET_SIDE]


def pairwise_feature(a: Detection, b: Detection):
    """[dx, dy, dh, iou] normalized by the mean height, plus their squares."""
    hbar = (a.h + b.h) / 2.0
    dx = abs(a.x - b.x) / hbar
    dy = abs(a.y - b.y) / hbar
    dh = abs(a.h - b.h) / hbar
    iou = detection_iou(a, b)
    return np.array([dx, dy, dh, iou, dx * dx, dy * dy, dh * dh, iou * iou],
                    dtype=FLOAT)


@dataclass
class PairwisePotentialModel:
    weights: np.ndarray  # (PAIR_FEATURES,)
    bias: float

    def cost(self, features):
        """Join log-odds of a feature vector (or batch); the multicut edge cost."""
        return np.asarray(features, dtype=FLOAT) @ self.weights + self.bias

    def to_json(self):
        return {"weights": self.weights.tolist(), "bias": float(self.bias)}

    @classmethod
    def from_json(cls, obj):
        """Inverse of ``to_json``. A ``weights`` that is not a list of
        ``PAIR_FEATURES`` finite numbers, or a ``bias`` that is missing or
        not a finite number, raises ``ValueError`` naming the key."""
        if not isinstance(obj, dict):
            raise ValueError(f"PairwisePotentialModel: expected a JSON object, "
                             f"got {type(obj).__name__}")
        weights, bias = obj.get("weights"), obj.get("bias")
        if not (isinstance(weights, list) and len(weights) == PAIR_FEATURES
                and all(_is_finite(v) for v in weights)):
            raise ValueError(f"PairwisePotentialModel: 'weights' must be a list of "
                             f"{PAIR_FEATURES} finite numbers, got {weights!r}")
        if not _is_finite(bias):
            raise ValueError(f"PairwisePotentialModel: 'bias' must be a finite number, "
                             f"got {bias!r}")
        return cls(weights=np.array(weights, dtype=FLOAT), bias=float(bias))


def fit_pairwise_model(samples):
    """Logistic regression by ``FIT_ITERS`` gradient-descent steps of size 1.

    ``samples``: a non-empty list of (feature, same_person bool), each
    feature ``PAIR_FEATURES`` finite numbers. Both classes must be present.
    A sample that breaks this raises ``ValueError`` naming it.

    With ``Xb`` the features plus a column of ones, ``y`` the 0/1 labels
    and ``w`` the weights plus bias (starting at 0), each step is
    ``w -= Xb.T @ (p - y) / n`` with ``p = 1 / (1 + exp(-clip(Xb @ w,
    -500, 500)))``, run in place on two buffers allocated once: the logits
    ``z`` go through max, min, negate, ``exp``, add 1, divide into 1 and
    subtract ``y``, then ``Xb.T @ z`` is divided by ``n`` and subtracted
    from ``w``. ``p`` is bitwise ``numerics.sigmoid`` of the clipped logits,
    but the fit keeps its own logistic: ``sigmoid`` enters ``np.errstate``
    on every call, which made the fit 15-30 % slower (2-core VM, one BLAS
    thread), and the clip already keeps ``exp`` finite, so no error state
    is needed.
    """
    if len(samples) == 0:
        raise ValueError("fit_pairwise_model: need at least one sample")
    feats = [np.asarray(f, dtype=FLOAT) for f, _ in samples]
    for k, f in enumerate(feats):
        if f.shape != (PAIR_FEATURES,):
            raise ValueError(f"fit_pairwise_model: sample {k}: feature shape {f.shape} "
                             f"is not ({PAIR_FEATURES},)")
    X = np.stack(feats)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        raise ValueError(f"fit_pairwise_model: sample {bad[0]}: feature "
                         f"{X[bad[0]].tolist()} is not finite")
    y = np.array([1.0 if lab else 0.0 for _, lab in samples], dtype=FLOAT)
    if y.min() == y.max():
        raise ValueError("fit_pairwise_model: need both positive and negative pairs")
    Xb = np.hstack([X, np.ones((len(y), 1))])
    w = np.zeros(Xb.shape[1], dtype=FLOAT)
    n = len(y)
    z = np.empty(n, dtype=FLOAT)
    g = np.empty_like(w)
    for _ in range(FIT_ITERS):
        np.matmul(Xb, w, out=z)
        np.maximum(z, -500.0, out=z)
        np.minimum(z, 500.0, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.add(1.0, z, out=z)
        np.divide(1.0, z, out=z)
        np.subtract(z, y, out=z)
        np.matmul(Xb.T, z, out=g)
        np.divide(g, n, out=g)
        np.subtract(w, g, out=w)
    return PairwisePotentialModel(weights=w[:-1], bias=float(w[-1]))


# ---------------------------------------------------------------------------
# multicut solver
# ---------------------------------------------------------------------------

@dataclass
class Partition:
    labels: np.ndarray  # cluster id per node, 0-based, compacted
    objective: float
    # perturbation restarts that improved the incumbent, summed over the
    # searched components; 0 where no component needed a search
    improving_restarts: int = 0

    def clusters(self):
        out = {}
        for node, lab in enumerate(self.labels):
            out.setdefault(int(lab), []).append(node)
        return [frozenset(v) for _, v in sorted(out.items())]


def _cost_matrix(n, edges):
    W = np.zeros((n, n), dtype=FLOAT)
    for i, j, c in edges:
        for u in (i, j):
            if not (isinstance(u, (int, np.integer)) and 0 <= u < n):
                raise ValueError(f"edge ({i!r}, {j!r}): node ids must be "
                                 f"integers in 0..{n - 1}")
        if i == j:
            raise ValueError("self edges are not allowed")
        if not np.isfinite(c):
            raise ValueError("edge costs must be finite")
        W[i, j] += c
        W[j, i] += c
    return W


def _objective(W, labels):
    total = 0.0
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        if len(idx) > 1:
            sub = W[np.ix_(idx, idx)]
            total += sub.sum() / 2.0
    return float(total)


def _compact(labels):
    _, out = np.unique(labels, return_inverse=True)
    return out.astype(int)


def greedy_contraction(W):
    """Merge the most attractive cluster pair while any pair has positive
    total cost; ties go to the lowest (i, j) representative pair."""
    n = W.shape[0]
    C = np.array(W, dtype=FLOAT)  # C[a, b]: total cost between clusters a and b
    live = np.triu(np.ones((n, n), dtype=bool), 1)
    labels = np.arange(n)
    for _ in range(n - 1):  # each merge removes one cluster
        a, b = divmod(int(np.argmax(np.where(live, C, -np.inf))), n)
        if not (live[a, b] and C[a, b] > 0.0):
            break
        C[a] += C[b]  # a < b; b's nodes join a
        C[:, a] += C[:, b]
        live[b] = live[:, b] = False
        labels[labels == b] = a
    return _compact(labels)


def _escape_pass(W, labels):
    """One Kernighan-Lin trajectory: repeatedly move the not-yet-moved node
    with the best gain, even a negative one, to another cluster or a new
    singleton, and keep the best prefix. Returns (labels, improved).

    ``A[u, g]`` is node u's total cost to cluster g. Its last column in
    play is always an empty cluster, the new-singleton target; a move
    into it brings the next (empty) column into play.
    """
    n = W.shape[0]
    cur = labels.copy()
    k = cur.max() + 1
    A = np.zeros((n, k + n + 1), dtype=FLOAT)
    A[:, :k] = W @ np.eye(k, dtype=FLOAT)[cur]
    m = k + 1  # columns in play
    rows = np.arange(n)
    free = rows  # nodes not yet moved, ascending
    running, best, best_labels = 0.0, 1e-12, None  # a prefix must gain beyond rounding
    for _ in range(n):
        own = cur[free]
        gains = A[free, :m] - A[free, own][:, None]
        gains[rows[:len(free)], own] = -np.inf
        i, g = divmod(int(np.argmax(gains)), m)
        u = free[i]
        running += gains[i, g]
        A[:, cur[u]] -= W[:, u]
        A[:, g] += W[:, u]
        cur[u] = g
        if g == m - 1:
            m += 1
        free = free[free != u]
        if running > best:
            best, best_labels = running, cur.copy()
    if best_labels is None:
        return labels, False
    return _compact(best_labels), True


def _refine(W, labels):
    """Escape passes until none improves (at most 50)."""
    for _ in range(50):
        labels, improved = _escape_pass(W, labels)
        if not improved:
            break
    return labels


def _positive_components(W):
    """Node lists of the connected components over the edges with W > 0,
    ordered by their smallest node."""
    parent = list(range(W.shape[0]))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for i, j in zip(*np.nonzero(np.triu(W, 1) > 0.0)):
        parent[find(i)] = find(j)
    comps = {}
    for u in range(W.shape[0]):
        comps.setdefault(find(u), []).append(u)
    return list(comps.values())


def _search(W):
    """Greedy contraction, escape passes to a local optimum, then
    deterministic perturbation restarts of rotating strength, each
    refined the same way; the best partition found wins. Returns the
    labels and the number of restarts that improved the incumbent."""
    n = W.shape[0]
    labels = _refine(W, greedy_contraction(W))
    best_obj = _objective(W, labels)
    improved = 0
    rng = rng_stream(0, "multicut-restarts")
    for r in range(RESTARTS):
        if r % 4 == 3:  # occasional fresh random start escapes the incumbent basin
            pert = rng.integers(0, max(1, (n + 1) // 2), size=n)
        else:
            pert = labels.copy()
            mask = rng.random(n) < (0.3, 0.5, 0.7)[r % 3]
            if mask.any():
                pert[mask] = rng.integers(0, pert.max() + 2, size=int(mask.sum()))
        cand = _refine(W, _compact(pert))
        obj = _objective(W, cand)
        if obj > best_obj + 1e-12:
            best_obj, labels = obj, cand
            improved += 1
    return labels, improved


def solve_multicut(n, edges):
    """Partition maximizing total intra-cluster cost.

    The nodes are first split into the connected components of the
    positive-edge graph. An optimal partition never joins two components,
    since every edge between them is non-positive, so each component is
    solved alone: one with no negative internal edge is one cluster
    (exact, no search), and any other goes through ``_search`` on its own
    sub-matrix (heuristic: greedy contraction, Kernighan-Lin escape passes
    until none improves, and ``RESTARTS`` perturbation restarts), which
    ends where no single-node move improves the partition. The result's
    ``improving_restarts`` counts the restarts that improved a component's
    incumbent.
    """
    if n <= 0:
        return Partition(labels=np.zeros(0, dtype=int), objective=0.0)
    W = _cost_matrix(n, edges)
    labels = np.empty(n, dtype=int)
    k = restarts = 0
    for comp in _positive_components(W):
        sub = W[np.ix_(comp, comp)]
        sub_labels, improved = ((np.zeros(len(comp), dtype=int), 0) if sub.min() >= 0.0
                                else _search(sub))
        labels[comp] = k + sub_labels
        k += sub_labels.max() + 1
        restarts += improved
    return Partition(labels=labels, objective=_objective(W, labels),
                     improving_restarts=restarts)


# ---------------------------------------------------------------------------
# two-level track building
# ---------------------------------------------------------------------------

def _cosine_similarity(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def build_tracks(detections, boundaries, model, appearance, body_appearance=None):
    """Detections -> identity tracks via the two clustering levels.

    ``appearance`` holds one head vector per detection (same order); the
    level-2 affinity uses their per-track means. Tracks spanning fewer
    than ``MIN_TRACK_FRAMES`` distinct frames are dropped between the levels.
    Expects detections already filtered by ``filter_detections``.
    """
    if not detections:
        return []
    appearance = np.asarray(appearance, dtype=FLOAT)
    if len(appearance) != len(detections):
        raise ValueError("need one appearance vector per detection")
    if body_appearance is not None:
        body_appearance = np.asarray(body_appearance, dtype=FLOAT)
        if len(body_appearance) != len(detections):
            raise ValueError("need one body appearance vector per detection")

    # shot index = number of cuts at or before t
    cuts = sorted(boundaries)
    shots = {}
    for idx, d in enumerate(detections):
        shots.setdefault(bisect.bisect_right(cuts, d.t), []).append(idx)

    proto = []
    for shot in sorted(shots):
        idxs = shots[shot]
        by_frame = {}
        for local, gidx in enumerate(idxs):
            by_frame.setdefault(detections[gidx].t, []).append(local)
        edges = []
        for t in sorted(by_frame):
            if t + 1 not in by_frame:
                continue
            for i in by_frame[t]:
                for j in by_frame[t + 1]:
                    f = pairwise_feature(detections[idxs[i]], detections[idxs[j]])
                    edges.append((i, j, float(model.cost(f))))
        part = solve_multicut(len(idxs), edges)
        for cluster in part.clusters():
            members = [idxs[i] for i in sorted(cluster)]
            frames = {detections[i].t for i in members}
            if len(frames) >= MIN_TRACK_FRAMES:
                proto.append(members)

    if not proto:
        return []

    means = [appearance[m].mean(axis=0) for m in proto]
    edges = []
    for i in range(len(proto)):
        for j in range(i + 1, len(proto)):
            edges.append((i, j, _cosine_similarity(means[i], means[j]) - BETA))
    part = solve_multicut(len(proto), edges)

    tracks = []
    for cluster in part.clusters():
        members = sorted(m for i in cluster for m in proto[i])
        dets = sorted((detections[m] for m in members), key=lambda d: (d.t, d.x))
        v_head = appearance[members].mean(axis=0)
        if body_appearance is not None:
            v_body = body_appearance[members].mean(axis=0)
        else:
            v_body = np.zeros_like(v_head)
        tracks.append(Track(id=0, detections=dets, v_head=v_head, v_body=v_body))
    for tr, row in zip(tracks, track_stats(tracks)):
        tr.v_stat = row
    tracks.sort(key=lambda t: (t.detections[0].t, t.detections[0].x))
    for tid, t in enumerate(tracks, start=1):
        t.id = tid
    return tracks
