import json

import numpy as np
import pytest

from charcap import multicut
from charcap.multicut import (
    PairwisePotentialModel, build_tracks, filter_detections, fit_pairwise_model,
    greedy_contraction, _cost_matrix, _objective, pairwise_feature, solve_multicut,
)
from charcap.numerics import rng_stream, sigmoid
from charcap.track_features import Detection
import references
from references import brute_force_multicut


def det(t, x, y, w=50.0, h=50.0, score=0.9):
    return Detection(t=t, x=x, y=y, w=w, h=h, score=score)


class TestPairwiseFeature:
    def test_identical_boxes(self):
        a = det(0, 10, 10, 20, 20)
        f = pairwise_feature(a, det(1, 10, 10, 20, 20))
        np.testing.assert_allclose(f, [0, 0, 0, 1, 0, 0, 0, 1])

    def test_known_offset(self):
        a = det(0, 10, 10, 20, 20)
        b = det(1, 14, 10, 20, 20)
        f = pairwise_feature(a, b)
        assert abs(f[0] - 0.2) < 1e-12
        assert f[1] == 0 and f[2] == 0
        # 16px horizontal overlap: (16*20)/(2*400-320) = 2/3
        assert abs(f[3] - 2.0 / 3.0) < 1e-12
        np.testing.assert_allclose(f[4:], f[:4] ** 2)

    def test_disjoint_iou_zero(self):
        f = pairwise_feature(det(0, 0, 0, 10, 10), det(1, 100, 100, 10, 10))
        assert f[3] == 0.0


class TestDetectionFilter:
    def test_thresholds(self):
        dets = [det(0, 0, 0, 50, 50, 0.9),   # keep
                det(0, 0, 0, 39, 50, 0.9),   # small width
                det(0, 0, 0, 50, 50, 0.4),   # low score
                det(0, 0, 0, 40, 40, 0.5)]   # boundary: keep
        kept = filter_detections(dets)
        assert kept == [dets[0], dets[3]]


def _separable(n=200, seed=0):
    rng = rng_stream(seed, "pairs")
    samples = []
    for _ in range(n):
        pos = rng.random() < 0.5
        if pos:
            f = np.array([rng.uniform(0, .1), rng.uniform(0, .1),
                          rng.uniform(0, .05), rng.uniform(.7, 1)])
        else:
            f = np.array([rng.uniform(.8, 2), rng.uniform(.8, 2),
                          rng.uniform(.3, 1), rng.uniform(0, .2)])
        samples.append((np.concatenate([f, f ** 2]), pos))
    return samples


class TestLogisticModel:
    def test_separable_accuracy(self):
        samples = _separable()
        model = fit_pairwise_model(samples)
        acc = np.mean([(model.cost(f) > 0) == lab for f, lab in samples])
        assert acc >= 0.99

    def test_label_flip_negates_weights(self, monkeypatch):
        monkeypatch.setattr(multicut, "FIT_ITERS", 500)
        samples = _separable(80)
        flipped = [(f, not lab) for f, lab in samples]
        m1 = fit_pairwise_model(samples)
        m2 = fit_pairwise_model(flipped)
        np.testing.assert_allclose(m1.weights, -m2.weights, atol=1e-8)
        assert abs(m1.bias + m2.bias) < 1e-8

    def test_iou_weight_positive(self):
        rng = rng_stream(3, "iou")
        samples = []
        for _ in range(120):
            if rng.random() < 0.5:
                base = det(0, 10, 10, 20, 20)
                f = pairwise_feature(base, det(1, 10, 10, 20, 20))
                samples.append((f, True))
            else:
                f = pairwise_feature(det(0, 0, 0, 20, 20), det(1, 300, 300, 20, 20))
                samples.append((f, False))
        model = fit_pairwise_model(samples)
        assert model.weights[3] > 0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_pairwise_model([(np.zeros(8), True), (np.ones(8), True)])

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            fit_pairwise_model([])

    def test_feature_of_wrong_width_named(self):
        samples = [(np.zeros(8), True), (np.ones(7), False), (np.ones(8), False)]
        with pytest.raises(ValueError, match=r"sample 1: feature shape \(7,\)"):
            fit_pairwise_model(samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_named(self, bad):
        f = np.ones(8)
        f[3] = bad
        samples = [(np.zeros(8), True), (np.ones(8), False), (f, False)]
        with pytest.raises(ValueError, match="sample 2: .* is not finite"):
            fit_pairwise_model(samples)

    def test_json_roundtrip(self):
        m = PairwisePotentialModel(weights=np.arange(8, dtype=float), bias=-1.5)
        back = PairwisePotentialModel.from_json(m.to_json())
        np.testing.assert_array_equal(back.weights, m.weights)
        assert back.bias == m.bias

    def test_fitted_model_survives_json_text_bitwise(self, monkeypatch):
        monkeypatch.setattr(multicut, "FIT_ITERS", 50)
        m = fit_pairwise_model(_separable(40))
        back = PairwisePotentialModel.from_json(json.loads(json.dumps(m.to_json())))
        assert back.weights.dtype == np.float64 and back.weights.tobytes() == m.weights.tobytes()
        assert back.bias == m.bias
        assert back.cost(np.ones(8)) == m.cost(np.ones(8))

    @pytest.mark.parametrize("key, value", [
        ("weights", None),
        ("weights", [0.0] * 7),
        ("weights", [0.0] * 9),
        ("weights", [0.0] * 7 + [float("nan")]),
        ("weights", [0.0] * 7 + [float("inf")]),
        ("weights", [0.0] * 7 + ["1.0"]),
        ("weights", [0.0] * 7 + [True]),
        ("weights", [[0.0]] * 8),
        ("weights", "0" * 8),
        ("bias", None),
        ("bias", float("nan")),
        ("bias", float("-inf")),
        ("bias", "1.5"),
        ("bias", False),
        ("bias", [1.5]),
    ])
    def test_from_json_rejects_unusable_value(self, key, value):
        obj = {"weights": [0.5] * 8, "bias": -1.0}
        if value is None:
            del obj[key]
        else:
            obj[key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            PairwisePotentialModel.from_json(obj)

    def test_from_json_rejects_a_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            PairwisePotentialModel.from_json([[0.5] * 8, -1.0])


def _fit_samples(kind, n=120, seed=0):
    """Labelled ``PAIR_FEATURES`` vectors: ``separable`` classes, ``noisy``
    labels of a noisy linear rule, or those features scaled by 100 so that
    the first logits pass the fit's +-500 clip."""
    if kind == "separable":
        return _separable(n, seed)
    rng = rng_stream(seed, f"fit-{kind}")
    f = rng.normal(size=(n, 4))
    lab = f @ np.array([1.0, -2.0, 0.5, 1.5]) + rng.normal(scale=1.5, size=n) > 0
    if kind == "large":
        f = f * 100.0
    return [(x, bool(b)) for x, b in zip(np.hstack([f, f ** 2]), lab)]


class TestFitMatchesReference:
    """The in-place fit reproduces the allocating loop in
    ``references.fit_pairwise_model`` bit for bit."""

    @pytest.mark.parametrize("iters", [None, 7])
    @pytest.mark.parametrize("kind", ["separable", "noisy", "large"])
    def test_weights_and_bias_bitwise(self, kind, iters, monkeypatch):
        if iters is not None:
            monkeypatch.setattr(multicut, "FIT_ITERS", iters)
        samples = _fit_samples(kind)
        steps = []
        w_ref, b_ref = references.fit_pairwise_model(samples, multicut.FIT_ITERS, steps)
        model = fit_pairwise_model(samples)
        assert model.weights.tobytes() == w_ref.tobytes()
        assert model.bias == b_ref
        if kind == "large":  # the clip branch runs
            assert any(np.abs(z).max() > 500.0 for z, _ in steps)
        else:
            assert all(np.abs(z).max() < 500.0 for z, _ in steps)

    @pytest.mark.parametrize("kind", ["separable", "noisy", "large"])
    def test_step_probability_is_sigmoid_of_clipped_logits(self, kind):
        steps = []
        references.fit_pairwise_model(_fit_samples(kind), multicut.FIT_ITERS, steps)
        for z, p in steps:
            assert p.tobytes() == sigmoid(np.clip(z, -500, 500)).tobytes()


def random_instance(rng, n):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((i, j, float(rng.uniform(-1, 1))))
    return edges


class TestSolver:
    def test_all_positive_single_cluster(self):
        part = solve_multicut(5, [(i, j, 0.5) for i in range(5)
                                  for j in range(i + 1, 5)])
        assert len(part.clusters()) == 1
        assert part.improving_restarts == 0  # no negative edge: nothing is searched

    def test_improving_restarts_are_counted(self):
        # a graph whose greedy-and-escape start is not optimal: one restart
        # finds the optimum, which brute force confirms
        rng = rng_stream(80, "restart-graph")
        n = int(rng.integers(6, 10))
        edges = [(i, j, float(rng.normal())) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.6]
        part = solve_multicut(n, edges)
        exact = brute_force_multicut(n, edges)
        assert part.improving_restarts >= 1
        assert exact.improving_restarts == 0
        assert abs(part.objective - exact.objective) < 1e-12

    def test_all_negative_singletons(self):
        part = solve_multicut(5, [(i, j, -0.5) for i in range(5)
                                  for j in range(i + 1, 5)])
        assert len(part.clusters()) == 5
        assert part.objective == 0.0

    def test_matches_brute_force_on_random_graphs(self):
        rng = rng_stream(11, "mc")
        for trial in range(40):
            n = int(rng.integers(2, 9))
            edges = random_instance(rng, n)
            got = solve_multicut(n, edges)
            exact = brute_force_multicut(n, edges)
            assert abs(got.objective - exact.objective) < 1e-9, (trial, n)

    def test_objective_at_least_greedy_and_singletons(self):
        rng = rng_stream(12, "mc2")
        for _ in range(20):
            n = int(rng.integers(3, 12))
            edges = random_instance(rng, n)
            W = _cost_matrix(n, edges)
            greedy_obj = _objective(W, greedy_contraction(W))
            part = solve_multicut(n, edges)
            assert part.objective >= greedy_obj - 1e-12
            assert part.objective >= 0.0  # all-singletons baseline

    def test_sparse_and_duplicate_edges(self):
        part = solve_multicut(4, [(0, 1, 0.4), (0, 1, 0.3), (2, 3, -0.2)])
        sets = frozenset(part.clusters())
        assert frozenset({0, 1}) in sets
        assert abs(part.objective - 0.7) < 1e-12

    def test_empty_graph(self):
        part = solve_multicut(3, [])
        assert len(part.clusters()) == 3

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            solve_multicut(3, [(1, 1, 0.5)])

    @pytest.mark.parametrize("node", [-1, 3, 0.5])
    def test_node_id_outside_range_rejected(self, node):
        # a negative id would index the cost matrix from its end
        with pytest.raises(ValueError, match="node ids"):
            solve_multicut(3, [(node, 0, 1.0)])


class TestComponentSplit:
    def test_blocks_joined_by_negative_edges_solve_exactly(self):
        # n = 24 is past the brute-force limit; each 8-node block is not
        rng = rng_stream(13, "blocks")
        size, n_blocks = 8, 3
        n = size * n_blocks
        edges, exact = [], 0.0
        for b in range(n_blocks):
            block = random_instance(rng, size)
            exact += brute_force_multicut(size, block).objective
            edges += [(i + b * size, j + b * size, c) for i, j, c in block]
        for i in range(n):
            for j in range(i + 1, n):
                if i // size != j // size:
                    edges.append((i, j, -float(rng.uniform(0.1, 1.0))))
        part = solve_multicut(n, edges)
        assert abs(part.objective - exact) < 1e-9
        for cluster in part.clusters():
            assert len({node // size for node in cluster}) == 1

    def test_level1_shaped_chain_gives_its_lanes(self):
        frames, lanes = 100, 3
        edges = []
        for t in range(frames - 1):
            for a in range(lanes):
                for b in range(lanes):
                    c = 2.0 if a == b else -2.0
                    edges.append((t * lanes + a, (t + 1) * lanes + b, c))
        part = solve_multicut(frames * lanes, edges)
        assert frozenset(part.clusters()) == frozenset(
            frozenset(t * lanes + a for t in range(frames)) for a in range(lanes))
        assert part.objective == 2.0 * (frames - 1) * lanes


def smooth_detections(n=8, x0=50.0, step=3.0, w=50.0):
    return [det(t, x0 + step * t, 60.0, w, w) for t in range(n)]


def trained_model():
    rng = rng_stream(21, "train-model")
    samples = []
    for _ in range(300):
        if rng.random() < 0.5:
            a = det(0, rng.uniform(40, 150), rng.uniform(40, 80))
            b = det(1, a.x + rng.normal(0, 3), a.y + rng.normal(0, 3))
            samples.append((pairwise_feature(a, b), True))
        else:
            a = det(0, rng.uniform(40, 150), rng.uniform(40, 80))
            b = det(1, rng.uniform(40, 150), rng.uniform(40, 80))
            if abs(a.x - b.x) + abs(a.y - b.y) < 40:
                continue
            samples.append((pairwise_feature(a, b), False))
    return fit_pairwise_model(samples)


class TestBuildTracks:
    def test_single_smooth_character(self):
        dets = smooth_detections()
        app = np.tile(np.array([1.0, 0.0, 0.0]), (len(dets), 1))
        tracks = build_tracks(dets, [], trained_model(), app)
        assert len(tracks) == 1
        assert len(tracks[0].detections) == 8

    def test_merge_across_cut_with_same_appearance(self):
        dets = smooth_detections(n=6, x0=50) + \
            [det(t, 300.0 + 3 * (t - 6), 60.0) for t in range(6, 12)]
        app = np.tile(np.array([0.5, 0.5, 0.0]), (len(dets), 1))
        tracks = build_tracks(dets, [6], trained_model(), app)
        assert len(tracks) == 1
        assert len({d.t for d in tracks[0].detections}) == 12

    def test_different_appearance_not_merged(self):
        dets = smooth_detections(n=6, x0=50) + \
            [det(t, 300.0 + 3 * (t - 6), 60.0) for t in range(6, 12)]
        app = np.vstack([np.tile([1.0, 0.0, 0.0], (6, 1)),
                         np.tile([-1.0, 0.0, 0.0], (6, 1))])
        tracks = build_tracks(dets, [6], trained_model(), app)
        assert len(tracks) == 2

    def test_short_chain_dropped(self):
        dets = smooth_detections(n=4)
        app = np.ones((4, 3))
        assert build_tracks(dets, [], trained_model(), app) == []

    def test_five_frame_chain_kept(self):
        dets = smooth_detections(n=5)
        app = np.ones((5, 3))
        assert len(build_tracks(dets, [], trained_model(), app)) == 1

    def test_empty_detections(self):
        assert build_tracks([], [], trained_model(), np.zeros((0, 3))) == []

    @pytest.mark.parametrize("rows", [4, 12])
    def test_body_appearance_row_count_must_match(self, rows):
        dets = smooth_detections()  # 8 detections
        with pytest.raises(ValueError, match="body appearance"):
            build_tracks(dets, [], trained_model(), np.ones((8, 3)),
                         body_appearance=np.ones((rows, 3)))

    def test_two_characters_two_tracks(self):
        dets = []
        app = []
        for t in range(8):
            dets.append(det(t, 50.0 + 3 * t, 60.0))
            app.append([1.0, 0.0])
            dets.append(det(t, 400.0 - 3 * t, 60.0))
            app.append([-1.0, 0.0])
        tracks = build_tracks(dets, [], trained_model(), np.array(app))
        assert len(tracks) == 2
        assert all(len(t.detections) == 8 for t in tracks)


class TestLevel2OrderInvariance:
    def test_unique_optimum_is_order_invariant(self):
        rng = rng_stream(31, "inv")
        for _ in range(10):
            n = 6
            edges = random_instance(rng, n)
            ref = frozenset(brute_force_multicut(n, edges).clusters())
            perm = rng.permutation(n)
            pedges = [(int(perm[i]), int(perm[j]), c) for i, j, c in edges]
            got = solve_multicut(n, pedges)
            mapped = frozenset(frozenset(int(perm[m]) for m in cluster)
                               for cluster in ref)
            assert frozenset(got.clusters()) == mapped


def sparse_instance(rng, n):
    return [(i, j, float(rng.normal())) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.3]


def noisy_lanes(rng, frames, lanes):
    """Level-1-shaped costs: frames up to 2 apart are joined, +2 within a
    lane and -2 across lanes, plus N(0, 1.5) noise."""
    edges = []
    for t in range(frames):
        for d in (1, 2):
            if t + d < frames:
                edges += [(t * lanes + a, (t + d) * lanes + b,
                           (2.0 if a == b else -2.0) + float(rng.normal(0.0, 1.5)))
                          for a in range(lanes) for b in range(lanes)]
    return edges


class TestBeyondBruteForce:
    def test_no_single_node_move_improves(self):
        rng = rng_stream(14, "local-opt")
        for trial in range(12):
            n = int(rng.integers(13, 41))
            edges = sparse_instance(rng, n)
            W = _cost_matrix(n, edges)
            labels = solve_multicut(n, edges).labels
            k = labels.max() + 1
            for u in range(n):
                # affinity of u to every cluster, plus an empty one
                aff = np.bincount(labels, weights=W[u], minlength=k + 1)
                assert aff.max() - aff[labels[u]] <= 1e-9, (trial, n, u)

    def test_noisy_lanes_reach_the_planted_objective(self):
        frames, lanes = 30, 3
        edges = noisy_lanes(rng_stream(15, "lanes"), frames, lanes)
        planted = sum(c for i, j, c in edges if i % lanes == j % lanes)
        part = solve_multicut(frames * lanes, edges)
        assert part.objective >= planted - 1e-9
