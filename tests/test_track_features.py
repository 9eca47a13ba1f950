import numpy as np
import pytest

from charcap.numerics import rng_stream
from charcap.track_features import (
    Detection, NormStats, Track, apply_norm, box_iou, detection_iou,
    fit_norm_stats, track_stats,
)


def _track(dets, d=4, tid=1, rng=None):
    rng = rng or rng_stream(0, "tf")
    t = Track(id=tid, detections=dets, v_head=rng.normal(size=d),
              v_body=rng.normal(size=d))
    t.v_stat = track_stats(t)
    return t


class TestIou:
    def test_identical(self):
        assert box_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert box_iou((0, 0, 10, 10), (20, 20, 5, 5)) == 0.0

    def test_detection_iou_uses_centers(self):
        a = Detection(t=0, x=10, y=10, w=20, h=20)
        b = Detection(t=0, x=14, y=10, w=20, h=20)
        # 16px horizontal overlap: (16*20) / (2*400 - 320)
        assert abs(detection_iou(a, b) - 16 * 20 / (800 - 320)) < 1e-12


class TestTrackStats:
    def test_single_detection(self):
        t = _track([Detection(t=0, x=10, y=20, w=40, h=40, score=0.9)])
        np.testing.assert_allclose(
            t.v_stat, [1, 40, 0, 40, 0, 10, 0, 20, 0, 0.9, 0])

    def test_population_std(self):
        t = _track([Detection(t=0, x=0, y=0, w=30, h=10, score=1.0),
                    Detection(t=1, x=0, y=0, w=50, h=10, score=1.0)])
        assert t.v_stat[1] == 40.0  # mean_w
        assert t.v_stat[2] == 10.0  # population std, divide by n

    def test_length_is_detection_count(self):
        dets = [Detection(t=i, x=0, y=0, w=5, h=5) for i in range(7)]
        assert track_stats(_track(dets))[0] == 7

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError):
            track_stats(Track(id=1, detections=[], v_head=np.zeros(2),
                              v_body=np.zeros(2)))

    def test_permutation_invariant(self):
        rng = rng_stream(5, "perm")
        dets = [Detection(t=i, x=float(rng.uniform(0, 100)), y=1.0,
                          w=float(rng.uniform(10, 50)), h=9.0,
                          score=float(rng.uniform(0, 1))) for i in range(6)]
        a = track_stats(_track(dets))
        b = track_stats(_track(dets[::-1]))
        np.testing.assert_allclose(a, b)


class TestNormalization:
    def _tracks(self, n=20, d=3, seed=0):
        rng = rng_stream(seed, "norm")
        out = []
        for i in range(n):
            dets = [Detection(t=j, x=float(rng.uniform(0, 100)),
                              y=float(rng.uniform(0, 100)),
                              w=float(rng.uniform(20, 60)),
                              h=float(rng.uniform(20, 60)),
                              score=float(rng.uniform(0.5, 1)))
                    for j in range(int(rng.integers(1, 5)))]
            out.append(_track(dets, d=d, tid=i, rng=rng))
        return out

    def test_training_split_standardized(self):
        tracks = self._tracks()
        stats = fit_norm_stats(tracks)
        normed = [apply_norm(t, stats) for t in tracks]
        for blk in ("v_head", "v_body", "v_stat"):
            data = np.stack([getattr(t, blk) for t in normed])
            mu, sd = data.mean(axis=0), data.std(axis=0)
            assert np.abs(mu).max() <= 1e-9
            nonconst = np.stack([getattr(t, blk) for t in tracks]).std(axis=0) > 1e-8
            np.testing.assert_allclose(sd[nonconst], 1.0, atol=1e-9)

    def test_constant_dim_maps_to_zero(self):
        tracks = self._tracks()
        for t in tracks:
            t.v_head[0] = 3.14
        stats = fit_norm_stats(tracks)
        normed = [apply_norm(t, stats) for t in tracks]
        assert all(t.v_head[0] == 0.0 for t in normed)

    def test_reapplying_stats_is_not_identity(self):
        tracks = self._tracks()
        stats = fit_norm_stats(tracks)
        normed = [apply_norm(t, stats) for t in tracks]
        twice = [apply_norm(t, stats) for t in normed]
        assert not np.allclose(twice[0].v_head, normed[0].v_head)

    def test_argsort_preserved_per_dimension(self):
        tracks = self._tracks()
        stats = fit_norm_stats(tracks)
        normed = [apply_norm(t, stats) for t in tracks]
        raw = np.stack([t.v_stat for t in tracks])
        out = np.stack([t.v_stat for t in normed])
        for dim in range(raw.shape[1]):
            if raw[:, dim].std() > 1e-8:
                np.testing.assert_array_equal(np.argsort(raw[:, dim]),
                                              np.argsort(out[:, dim]))

    def test_test_split_reuses_training_stats(self):
        train = self._tracks(seed=1)
        test = self._tracks(seed=2)
        stats = fit_norm_stats(train)
        normed = [apply_norm(t, stats) for t in test]
        data = np.stack([t.v_stat for t in normed])
        # test split is not exactly standardized under training stats
        assert np.abs(data.mean(axis=0)).max() > 1e-6

    def test_stats_json_roundtrip(self):
        stats = fit_norm_stats(self._tracks())
        back = NormStats.from_json(stats.to_json())
        for blk in NormStats.BLOCKS:
            np.testing.assert_array_equal(back.mean[blk], stats.mean[blk])
            np.testing.assert_array_equal(back.std[blk], stats.std[blk])

    def test_empty_fit_split_rejected(self):
        with pytest.raises(ValueError):
            fit_norm_stats([])
