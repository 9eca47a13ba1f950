"""Two-level clustering tracker over signed pairwise costs.

Level 1 groups head detections on consecutive frames within a shot, with
edge costs from a logistic join model over geometric pair features.
Level 2 groups the surviving tracks across shots by appearance, with edge
costs cosine_similarity - beta on mean-pooled head vectors.

``solve_multicut`` maximizes the total intra-cluster cost (positive cost
rewards joining, negative rewards cutting). It splits the nodes into the
connected components of the positive-edge graph, which an optimal
partition never joins, and solves each component alone: a component with
no negative internal edge is one cluster; any other gets greedy edge
contraction followed by Kernighan-Lin-style refinement (best-improvement
node moves, and an escape pass that chains tentative moves and keeps the
best prefix) and perturbation restarts. ``brute_force_multicut``
enumerates all set partitions and is the exactness oracle for small
instances.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .numerics import FLOAT, rng_stream
from .track_features import Detection, Track, detection_iou, track_stats

MIN_DET_SCORE = 0.5
MIN_DET_SIDE = 40.0
MIN_TRACK_FRAMES = 5
DEFAULT_BETA = 0.5
RESTARTS = 16  # perturbation restarts per searched component


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
    weights: np.ndarray  # (8,)
    bias: float

    def cost(self, features):
        """Join log-odds of a feature vector (or batch); the multicut edge cost."""
        return np.asarray(features, dtype=FLOAT) @ self.weights + self.bias

    def predict(self, features):
        return self.cost(features) > 0

    def to_json(self):
        return {"weights": self.weights.tolist(), "bias": float(self.bias)}

    @classmethod
    def from_json(cls, obj):
        return cls(weights=np.asarray(obj["weights"], dtype=FLOAT),
                   bias=float(obj["bias"]))


def fit_pairwise_model(samples, lr=1.0, iters=2000, l2=0.0):
    """Logistic regression by plain gradient descent.

    ``samples``: list of (8-dim feature, same_person bool). Both classes
    must be present.
    """
    X = np.stack([np.asarray(f, dtype=FLOAT) for f, _ in samples])
    y = np.array([1.0 if lab else 0.0 for _, lab in samples], dtype=FLOAT)
    if y.min() == y.max():
        raise ValueError("fit_pairwise_model: need both positive and negative pairs")
    Xb = np.hstack([X, np.ones((len(y), 1))])
    w = np.zeros(Xb.shape[1], dtype=FLOAT)
    n = len(y)
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-np.clip(Xb @ w, -500, 500)))
        grad = Xb.T @ (p - y) / n + l2 * w
        w -= lr * grad
    return PairwisePotentialModel(weights=w[:-1], bias=float(w[-1]))


# ---------------------------------------------------------------------------
# multicut solver
# ---------------------------------------------------------------------------

@dataclass
class Partition:
    labels: np.ndarray  # cluster id per node, 0-based, compacted
    objective: float

    def clusters(self):
        out = {}
        for node, lab in enumerate(self.labels):
            out.setdefault(int(lab), []).append(node)
        return [frozenset(v) for _, v in sorted(out.items())]

    def as_sets(self):
        return frozenset(self.clusters())


def _cost_matrix(n, edges):
    W = np.zeros((n, n), dtype=FLOAT)
    for i, j, c in edges:
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
    labels = np.arange(n)
    inter = {}
    for i in range(n):
        for j in range(i + 1, n):
            if W[i, j] != 0.0:
                inter[(i, j)] = W[i, j]
    while True:
        best_key, best_val = None, 0.0
        for key in sorted(inter):
            val = inter[key]
            if val > best_val + 1e-15 or (best_key is None and val > 0.0):
                best_key, best_val = key, val
        if best_key is None:
            break
        a, b = best_key  # a < b; b's nodes join a
        labels[labels == b] = a
        merged = {}
        for (i, j), val in inter.items():
            if (i, j) == (a, b):
                continue
            i2 = a if i == b else i
            j2 = a if j == b else j
            if i2 == j2:
                continue
            key = (min(i2, j2), max(i2, j2))
            merged[key] = merged.get(key, 0.0) + val
        inter = merged
    return _compact(labels)


def _node_move_pass(W, labels):
    """Best-improvement single-node moves (including to a new singleton)."""
    n = W.shape[0]
    improved = False
    while True:
        moved = False
        k = labels.max() + 1
        for u in range(n):
            aff = np.bincount(labels, weights=W[u], minlength=k + 1)
            own = labels[u]
            gains = aff - aff[own]
            gains[own] = 0.0
            # an empty target cluster has affinity 0
            best = int(np.argmax(gains))
            if gains[best] > 1e-12:
                labels[u] = best
                labels = _compact(labels)
                k = labels.max() + 1
                moved = improved = True
        if not moved:
            break
    return labels, improved


def _best_forced_move(W, cur, moved):
    k = cur.max() + 2  # one spare slot for "new singleton"
    cand = None
    for u in range(len(cur)):
        if moved[u]:
            continue
        aff = np.bincount(cur, weights=W[u], minlength=k)
        own = cur[u]
        gains = aff - aff[own]
        gains[own] = -np.inf
        tgt = int(np.argmax(gains))
        if cand is None or gains[tgt] > cand[0] + 1e-15:
            cand = (gains[tgt], u, tgt)
    return cand


def _escape_trajectory(W, labels, base, first=None):
    """Chain forced best moves (possibly negative), each node at most once;
    returns (best objective, best state) over the chain's prefixes."""
    n = W.shape[0]
    cur = labels.copy()
    moved = np.zeros(n, dtype=bool)
    running = base
    best_obj, best_state = base, None
    for step in range(n):
        if step == 0 and first is not None:
            cand = first
        else:
            cand = _best_forced_move(W, cur, moved)
        if cand is None:
            break
        gain, u, tgt = cand
        cur[u] = tgt
        cur = _compact(cur)
        moved[u] = True
        running += gain
        if running > best_obj + 1e-12:
            best_obj, best_state = running, cur.copy()
    return best_obj, best_state


def _escape_pass(W, labels, deep_limit=24):
    """KL-style escape. On small instances a trajectory is tried from
    every feasible first move; otherwise only from the globally best one."""
    n = W.shape[0]
    base = _objective(W, labels)
    best_obj, best_state = base, None
    if n <= deep_limit:
        k = labels.max() + 2
        firsts = []
        for u in range(n):
            aff = np.bincount(labels, weights=W[u], minlength=k)
            for g in range(k):
                if g != labels[u]:
                    firsts.append((float(aff[g] - aff[labels[u]]), u, g))
    else:
        firsts = [None]
    for first in firsts:
        obj, state = _escape_trajectory(W, labels, base, first)
        if state is not None and obj > best_obj + 1e-12:
            best_obj, best_state = obj, state
    if best_state is not None:
        return best_state, True
    return labels, False


def _refine(W, labels):
    for _ in range(50):
        labels, moved = _node_move_pass(W, labels)
        labels, escaped = _escape_pass(W, labels)
        if not (moved or escaped):
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
    """Greedy contraction, refinement to a local optimum, then
    deterministic perturbation restarts of rotating strength."""
    n = W.shape[0]
    labels = _refine(W, greedy_contraction(W))
    best_obj = _objective(W, labels)
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
    return labels


def solve_multicut(n, edges):
    """Partition maximizing total intra-cluster cost.

    The nodes are first split into the connected components of the
    positive-edge graph. An optimal partition never joins two components,
    since every edge between them is non-positive, so each component is
    solved alone: one with no negative internal edge is one cluster
    (exact, no search), and any other goes through ``_search`` on its own
    sub-matrix (heuristic: greedy contraction, node-move and escape
    passes, and ``RESTARTS`` perturbation restarts).
    """
    if n <= 0:
        return Partition(labels=np.zeros(0, dtype=int), objective=0.0)
    W = _cost_matrix(n, edges)
    labels = np.empty(n, dtype=int)
    k = 0
    for comp in _positive_components(W):
        sub = W[np.ix_(comp, comp)]
        sub_labels = np.zeros(len(comp), dtype=int) if sub.min() >= 0.0 else _search(sub)
        labels[comp] = k + sub_labels
        k += sub_labels.max() + 1
    return Partition(labels=labels, objective=_objective(W, labels))


def _set_partitions(n):
    """All set partitions of range(n) as label arrays (restricted growth)."""
    labels = np.zeros(n, dtype=int)
    maxes = np.zeros(n, dtype=int)
    while True:
        yield labels.copy()
        i = n - 1
        while i > 0:
            if labels[i] <= maxes[i - 1]:
                labels[i] += 1
                maxes[i] = max(maxes[i - 1], labels[i])
                labels[i + 1:] = 0
                maxes[i + 1:] = maxes[i]
                break
            i -= 1
        else:
            return


def brute_force_multicut(n, edges):
    """Exhaustive enumeration over all set partitions; exact but tiny-n only."""
    if n > 12:
        raise ValueError("brute force is limited to n <= 12")
    W = _cost_matrix(n, edges)
    best_obj, best_labels = -np.inf, None
    for labels in _set_partitions(n):
        obj = _objective(W, labels)
        if obj > best_obj + 1e-15:
            best_obj, best_labels = obj, labels
    return Partition(labels=best_labels, objective=best_obj)


# ---------------------------------------------------------------------------
# two-level track building
# ---------------------------------------------------------------------------

def _cosine_similarity(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def build_tracks(detections, boundaries, model, appearance, beta=DEFAULT_BETA,
                 body_appearance=None, min_frames=MIN_TRACK_FRAMES):
    """Detections -> identity tracks via the two clustering levels.

    ``appearance`` holds one head vector per detection (same order); the
    level-2 affinity uses their per-track means. Tracks spanning fewer
    than ``min_frames`` distinct frames are dropped between the levels.
    Expects detections already filtered by ``filter_detections``.
    """
    if not detections:
        return []
    appearance = np.asarray(appearance, dtype=FLOAT)
    if len(appearance) != len(detections):
        raise ValueError("need one appearance vector per detection")
    if body_appearance is not None:
        body_appearance = np.asarray(body_appearance, dtype=FLOAT)

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
            if len(frames) >= min_frames:
                proto.append(members)

    if not proto:
        return []

    means = [appearance[m].mean(axis=0) for m in proto]
    edges = []
    for i in range(len(proto)):
        for j in range(i + 1, len(proto)):
            edges.append((i, j, _cosine_similarity(means[i], means[j]) - beta))
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
        tr = Track(id=0, detections=dets, v_head=v_head, v_body=v_body)
        tr.v_stat = track_stats(tr)
        tracks.append(tr)
    tracks.sort(key=lambda t: (t.detections[0].t, t.detections[0].x))
    for tid, t in enumerate(tracks, start=1):
        t.id = tid
    return tracks
