import dataclasses

import numpy as np
import pytest

from charcap.corpus import CorpusConfig, generate_corpus
from charcap.numerics import rng_stream
from charcap.track_features import (
    Detection, NormStats, Track, apply_norm, detection_iou,
    STAT_DIM, STD_FLOOR, fit_norm_stats, track_stats,
)
import references


def _track(dets, d=4, tid=1, rng=None):
    rng = rng or rng_stream(0, "tf")
    t = Track(id=tid, detections=dets, v_head=rng.normal(size=d),
              v_body=rng.normal(size=d))
    t.v_stat = track_stats([t])[0]
    return t


class TestIou:
    def test_identical(self):
        a = Detection(t=0, x=5, y=5, w=10, h=10)
        assert detection_iou(a, a) == 1.0

    def test_disjoint(self):
        # the corner boxes (0, 0, 10, 10) and (20, 20, 5, 5)
        a = Detection(t=0, x=5, y=5, w=10, h=10)
        b = Detection(t=0, x=22.5, y=22.5, w=5, h=5)
        assert detection_iou(a, b) == 0.0

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
        assert track_stats([_track(dets)])[0, 0] == 7

    def test_empty_track_rejected(self):
        empty = Track(id=2, detections=[], v_head=np.zeros(2), v_body=np.zeros(2))
        with pytest.raises(ValueError, match="track 2 has no detections"):
            track_stats([_track([Detection(t=0, x=0, y=0, w=5, h=5)]), empty])

    def test_no_tracks_give_no_rows(self):
        assert track_stats([]).shape == (0, STAT_DIM)

    def test_permutation_invariant(self):
        rng = rng_stream(5, "perm")
        dets = [Detection(t=i, x=float(rng.uniform(0, 100)), y=1.0,
                          w=float(rng.uniform(10, 50)), h=9.0,
                          score=float(rng.uniform(0, 1))) for i in range(6)]
        a, b = track_stats([_track(dets), _track(dets[::-1])])
        np.testing.assert_allclose(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_quantity_reference_bitwise(self, seed):
        # One call over mixed lengths, each several times, so tracks of one
        # length are reduced together. 8 and 128 are the boundaries of
        # numpy's pairwise summation (an 8-wide unrolled block, and blocks
        # of 128 split in halves).
        rng = rng_stream(seed, "stats-ref")
        lengths = [1, 7, 8, 9, 128, 129, 300] * 3 + [2, 16, 127, *rng.integers(1, 301, size=20)]
        tracks = []
        for k in rng.permutation(len(lengths)):
            scale = 10.0 ** rng.uniform(-3, 4, size=5)
            v = rng.normal(size=(int(lengths[k]), 5)) * scale + rng.normal(size=5) * scale * 10
            dets = [Detection(t=i, x=r[2], y=r[3], w=r[0], h=r[1], score=r[4])
                    for i, r in enumerate(v.tolist())]
            tracks.append(Track(id=len(tracks), detections=dets, v_head=None, v_body=None))
        rows = track_stats(tracks)
        for t, row in zip(tracks, rows, strict=True):
            assert row.tobytes() == references.track_stats(t).tobytes()

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
        for blk in ("v_head", "v_body", "v_stat"):
            data = apply_norm(tracks, stats, blk)
            mu, sd = data.mean(axis=0), data.std(axis=0)
            assert np.abs(mu).max() <= 1e-9
            nonconst = np.stack([getattr(t, blk) for t in tracks]).std(axis=0) > 1e-8
            np.testing.assert_allclose(sd[nonconst], 1.0, atol=1e-9)

    def test_constant_dim_maps_to_zero(self):
        tracks = self._tracks()
        for t in tracks:
            t.v_head[0] = 3.14
        stats = fit_norm_stats(tracks)
        assert all(apply_norm(tracks, stats, "v_head")[:, 0] == 0.0)

    def test_reapplying_stats_is_not_identity(self):
        tracks = self._tracks()
        stats = fit_norm_stats(tracks)
        once = apply_norm(tracks, stats, "v_head")
        normed = [dataclasses.replace(t, v_head=v) for t, v in zip(tracks, once)]
        twice = apply_norm(normed, stats, "v_head")
        assert not np.allclose(twice[0], once[0])

    def test_argsort_preserved_per_dimension(self):
        tracks = self._tracks()
        stats = fit_norm_stats(tracks)
        raw = np.stack([t.v_stat for t in tracks])
        out = apply_norm(tracks, stats, "v_stat")
        for dim in range(raw.shape[1]):
            if raw[:, dim].std() > 1e-8:
                np.testing.assert_array_equal(np.argsort(raw[:, dim]),
                                              np.argsort(out[:, dim]))

    def test_test_split_reuses_training_stats(self):
        train = self._tracks(seed=1)
        test = self._tracks(seed=2)
        stats = fit_norm_stats(train)
        data = apply_norm(test, stats, "v_stat")
        # test split is not exactly standardized under training stats
        assert np.abs(data.mean(axis=0)).max() > 1e-6

    def test_missing_block_names_the_track(self):
        # a missing block, then a first track whose block is (1, d)
        for at, fault in ((2, "missing"), (0, "2-d")):
            tracks = self._tracks(n=4)
            stats = fit_norm_stats(tracks)
            v = tracks[at].v_stat
            tracks[at].v_stat = None if fault == "missing" else v[None, :]
            named = (f"track {at} is missing v_stat" if fault == "missing" else
                     rf"track {at} has a \(1, {v.size}\)-shaped v_stat, not a flat vector")
            with pytest.raises(ValueError, match=f"^apply_norm: {named}$"):
                apply_norm(tracks, stats, "v_stat")
            with pytest.raises(ValueError, match=f"^fit_norm_stats: {named}$"):
                fit_norm_stats(tracks)

    @pytest.mark.parametrize("blk", NormStats.BLOCKS)
    def test_block_of_another_width_names_the_track(self, blk):
        # one block a dimension wider, then every block (1, d): that once
        # gave a (1, d) mean, and apply_norm then claimed that the norm
        # statistics were 1 wide
        for fault in ("one-wider", "every-2d"):
            tracks = self._tracks(n=4)
            stats = fit_norm_stats(tracks)
            width = len(getattr(tracks[0], blk))
            if fault == "one-wider":
                setattr(tracks[2], blk, np.append(getattr(tracks[2], blk), 0.0))
                named = f"track 2 has a {width + 1}-wide {blk}, "
                fit_end = f"the first track's is {width} wide"
                apply_end = f"the norm statistics are {width} wide"
            else:
                for t in tracks:
                    setattr(t, blk, getattr(t, blk)[None, :])
                named = rf"track 0 has a \(1, {width}\)-shaped {blk}, "
                fit_end = apply_end = "not a flat vector"
            with pytest.raises(ValueError, match=f"^fit_norm_stats: {named}{fit_end}$"):
                fit_norm_stats(tracks)
            with pytest.raises(ValueError, match=f"^apply_norm: {named}{apply_end}$"):
                apply_norm(tracks, stats, blk)

    def test_rows_are_the_stacked_blocks_bitwise(self):
        # the crowded benchmark's corpus: 1 788 tracks over 64 clips
        c = generate_corpus(CorpusConfig(n_pairs=32, n_characters=70, max_distractors=60), seed=1)
        tracks = [t for clip in c.clips for t in clip.tracks]
        stats = fit_norm_stats(tracks)
        for blk in NormStats.BLOCKS:
            data = np.stack([getattr(t, blk) for t in tracks])
            sd = data.std(axis=0)
            sd[sd < STD_FLOOR] = 1.0
            assert stats.mean[blk].tobytes() == data.mean(axis=0).tobytes()
            assert stats.std[blk].tobytes() == sd.tobytes()
            normed = (data - stats.mean[blk]) / stats.std[blk]
            assert apply_norm(tracks, stats, blk).tobytes() == normed.tobytes()
            none = apply_norm([], stats, blk)
            assert none.shape == (0, data.shape[1]) and none.dtype == np.float64

    def test_empty_fit_split_rejected(self):
        with pytest.raises(ValueError):
            fit_norm_stats([])
