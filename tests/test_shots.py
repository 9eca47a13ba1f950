import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage
from scipy.ndimage import uniform_filter

import charcap
from charcap import shots
from charcap.numerics import rng_stream
from charcap.shots import (
    SHIFT_CHUNK_ELEMS, boundary_f_score, detect_boundaries, fit_thresholds,
    frame_signature, hist_distance, pair_features, survival_ratio, synthetic_cut_video,
)


def solid(r, g, b, h=20, w=24):
    f = np.zeros((h, w, 3), dtype=np.uint8)
    f[:, :, 0] = r
    f[:, :, 1] = g
    f[:, :, 2] = b
    return f


class TestSignature:
    def test_uniform_gray_one_bin_per_channel(self, monkeypatch):
        monkeypatch.setattr(shots, "BINS", 4)
        sig = frame_signature(solid(128, 128, 128))
        hist = sig.histogram.reshape(3, 4)
        for ch in range(3):
            nz = np.flatnonzero(hist[ch])
            assert len(nz) == 1
            assert abs(hist[ch, nz[0]] - 1.0 / 3.0) < 1e-12
        assert abs(sig.histogram.sum() - 1.0) <= 1e-9

    def test_uniform_frame_has_no_corners(self):
        sig = frame_signature(solid(77, 20, 200))
        assert len(sig.corners) == 0

    def test_identical_frames_distance_zero(self):
        rng = rng_stream(0, "shot")
        f = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        assert hist_distance(frame_signature(f), frame_signature(f)) == 0.0

    def test_red_vs_blue_distance(self):
        # red and blue histograms share the zero bin of exactly one channel
        # (green), so two of three channel blocks are disjoint: distance 4/3
        d = hist_distance(frame_signature(solid(255, 0, 0)),
                          frame_signature(solid(0, 0, 255)))
        assert abs(d - 4.0 / 3.0) < 1e-12

    def test_textured_frame_respects_corner_budget(self, monkeypatch):
        monkeypatch.setattr(shots, "MAX_CORNERS", 50)
        rng = rng_stream(1, "shot")
        f = rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
        sig = frame_signature(f)
        assert 0 < len(sig.corners) <= 50

    def test_dark_integer_frame_is_not_full_range(self):
        # an all-1 uint8 frame is near black, not white
        d = hist_distance(frame_signature(solid(0, 0, 0)),
                          frame_signature(solid(1, 1, 1)))
        assert d == 0.0

    @pytest.mark.parametrize("bins", [4, 5, 32])
    def test_histogram_bins_levels_by_rule(self, bins, monkeypatch):
        # level k falls in bin min(k * BINS // 255, BINS - 1); for a power of
        # two that is np.histogram on [0, 1], for BINS = 5 it is not
        monkeypatch.setattr(shots, "BINS", bins)
        rng = rng_stream(bins, "hist")
        levels = np.stack([rng.permutation(256) for _ in range(3)], axis=-1)
        frames = [levels.reshape(16, 16, 3).astype(np.uint8)]
        frames += [rng.integers(0, 256, size=(12, 20, 3)).astype(np.uint8) for _ in range(3)]
        level_bin = np.minimum(np.arange(256) * bins // 255, bins - 1)
        for f in frames:
            rule = np.concatenate([np.bincount(level_bin[f[:, :, ch]].ravel(), minlength=bins)
                                   for ch in range(3)]).astype(float)
            reference = np.concatenate([np.histogram(f[:, :, ch] / 255.0, bins=bins,
                                                     range=(0.0, 1.0))[0]
                                        for ch in range(3)]).astype(float)
            got = frame_signature(f).histogram
            assert got.tobytes() == (rule / rule.sum()).tobytes()
            if bins != 5:
                assert got.tobytes() == (reference / reference.sum()).tobytes()
            elif f is frames[0]:  # some of the 256 levels sit one bin off
                assert rule.tolist() != reference.tolist()


class TestSurvival:
    def test_identical_frames_full_survival(self):
        rng = rng_stream(2, "shot")
        f = rng.integers(0, 256, size=(24, 24, 3)).astype(np.uint8)
        sig = frame_signature(f)
        assert survival_ratio(sig, sig) == 1.0

    def test_no_corners_counts_as_full_survival(self):
        a, b = frame_signature(solid(10, 10, 10)), frame_signature(solid(240, 240, 240))
        assert len(a.corners) == 0
        assert survival_ratio(a, b) == 1.0

    def test_unrelated_frames_lose_points(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 6)
        rng = rng_stream(3, "shot")
        a = (128 + rng.uniform(-40, 40, size=(24, 32, 3))).astype(np.uint8)
        b = (60 + rng.uniform(-40, 40, size=(24, 32, 3))).astype(np.uint8)
        assert survival_ratio(frame_signature(a), frame_signature(b)) < 0.5

    def test_ratio_in_unit_interval(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 4)
        rng = rng_stream(4, "shot")
        frames, _ = synthetic_cut_video(rng, 6, 2)
        _, survs = pair_features(frames)
        assert ((survs >= 0) & (survs <= 1)).all()


def exhaustive_survival(frame_a, frame_b, corners):
    """Reference: every shift within shots.SEARCH_RADIUS, one full-frame
    uniform_filter of shots.PATCH_SIZE each."""
    if len(corners) == 0:
        return 1.0
    ga = (frame_a / 255.0).mean(axis=2)
    gb = (frame_b / 255.0).mean(axis=2)
    h, w = ga.shape
    r = shots.SEARCH_RADIUS
    gb_pad = np.pad(gb, r, mode="edge")
    best = np.full(len(corners), np.inf)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            shifted = gb_pad[r + dy:r + dy + h, r + dx:r + dx + w]
            ssd = uniform_filter((ga - shifted) ** 2, size=shots.PATCH_SIZE)
            np.minimum(best, ssd[corners[:, 0], corners[:, 1]], out=best)
    return float(np.mean(best <= shots.SSD_THRESHOLD))


class TestSurvivalSearch:
    # 100 x 100 exceeds SHIFT_CHUNK_ELEMS, so each chunk is one shift
    @pytest.mark.parametrize("height,width", [(5, 7), (24, 32), (100, 100)])
    def test_equals_exhaustive_search(self, height, width, monkeypatch):
        assert (height * width > SHIFT_CHUNK_ELEMS) == (height == 100)
        rng = rng_stream(height * width, "survival")
        frames, cuts = synthetic_cut_video(rng, 4, 1, height=height, width=width)
        border = np.array([[0, width // 2], [height - 1, width // 2],
                           [height // 2, 0], [height // 2, width - 1],
                           [0, 0], [height - 1, width - 1]])
        ratios = []
        for i in range(len(frames) - 1):
            a, b = frames[i], frames[i + 1]
            sig_a = frame_signature(a)
            sig_a.corners = np.concatenate([sig_a.corners, border])
            sig_b = frame_signature(b)
            for radius in (0, 1, 4, 16):
                monkeypatch.setattr(shots, "SEARCH_RADIUS", radius)
                for patch in (3, 9):
                    monkeypatch.setattr(shots, "PATCH_SIZE", patch)
                    got = survival_ratio(sig_a, sig_b)
                    assert got == exhaustive_survival(a, b, sig_a.corners)
                    ratios.append(got)
        # both kinds of pair: a full match and an exhausted search
        assert cuts and 1.0 in ratios and min(ratios) < 1.0

    def test_stops_once_every_corner_matched(self, monkeypatch):
        rng = rng_stream(8, "shot")
        f = rng.integers(0, 256, size=(24, 24, 3)).astype(np.uint8)
        g = rng.integers(0, 256, size=(24, 24, 3)).astype(np.uint8)
        sig_f, sig_g = frame_signature(f), frame_signature(g)
        filtered = []
        real = ndimage.uniform_filter1d

        def counting(stack, *args, **kw):
            filtered.append(len(stack))
            return real(stack, *args, **kw)

        # survival_ratio imports the filter from scipy.ndimage at each call
        monkeypatch.setattr(ndimage, "uniform_filter1d", counting)
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 4)
        # identical frames: ring 0's one shift matches every corner
        assert survival_ratio(sig_f, sig_f) == 1.0
        assert filtered == [1, 1]  # one shift, filtered along rows then columns
        # unrelated frames keep lost corners, so every shift is searched
        filtered.clear()
        assert survival_ratio(sig_f, sig_g) < 1.0
        assert sum(filtered) == 2 * 9 * 9


class TestPairFeatures:
    def test_converts_each_frame_once(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 4)
        rng = rng_stream(9, "shot")
        frames = [rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8) for _ in range(5)]
        converted = []
        real = shots._as_float_rgb

        def counting(frame):
            converted.append(frame)
            return real(frame)

        monkeypatch.setattr(shots, "_as_float_rgb", counting)
        pair_features(frames)
        assert len(converted) == len(frames)

    def test_corners_found_only_for_first_frames(self, monkeypatch):
        # the last frame is never the first of a pair, so its corners are
        # never read
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 2)
        rng = rng_stream(11, "shot")
        frames, _ = synthetic_cut_video(rng, 7, 2)
        responses = []
        real = shots.min_eig_response

        def counting(gray):
            responses.append(gray)
            return real(gray)

        monkeypatch.setattr(shots, "min_eig_response", counting)
        pair_features(frames)
        assert len(responses) == len(frames) - 1

    def test_survival_equals_exhaustive_search(self):
        rng = rng_stream(10, "shot")
        frames, cuts = synthetic_cut_video(rng, 6, 2)
        _, survs = pair_features(frames)
        want = [exhaustive_survival(a, b, frame_signature(a).corners)
                for a, b in zip(frames, frames[1:])]
        assert survs.tolist() == want
        assert cuts and min(want) < 1.0

    @pytest.mark.parametrize("bad", [
        lambda f: f / 255.0,
        lambda f: f.astype(np.int64),
        lambda f: np.concatenate([f, f]),
    ], ids=["float", "int64", "taller"])
    def test_frame_not_uint8_like_frame_0_rejected(self, bad):
        frames = [solid(10, 20, 30) for _ in range(4)]
        frames[2] = bad(frames[2])
        with pytest.raises(ValueError, match="frame 2"):
            pair_features(frames)


class TestBoundaries:
    def test_constant_video_has_no_boundaries(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 4)
        frames = [solid(90, 120, 40) for _ in range(6)]
        assert detect_boundaries(frames, 0.2, 0.5) == []

    def test_three_segments_two_boundaries(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 4)
        rng = rng_stream(5, "shot")
        frames, cuts = synthetic_cut_video(rng, 12, 2)
        got = detect_boundaries(frames, 0.5, 0.5)
        assert got == cuts
        assert len(got) == 2

    def test_lowering_theta_hist_only_adds(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 4)
        rng = rng_stream(6, "shot")
        frames, _ = synthetic_cut_video(rng, 10, 2)
        hi = set(detect_boundaries(frames, 0.8, 0.0))
        lo = set(detect_boundaries(frames, 0.1, 0.0))
        assert hi <= lo

    def test_threshold_validation(self):
        frames = [solid(1, 1, 1)] * 3
        with pytest.raises(ValueError):
            detect_boundaries(frames, -0.1, 0.5)
        with pytest.raises(ValueError):
            detect_boundaries(frames, 0.1, 1.5)
        with pytest.raises(ValueError):
            detect_boundaries(frames[:1], 0.1, 0.5)

    def test_nan_theta_hist_rejected(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 2)
        rng = rng_stream(5, "shot")
        frames, cuts = synthetic_cut_video(rng, 12, 2)
        assert cuts and detect_boundaries(frames, 0.5, 0.0) == cuts
        with pytest.raises(ValueError, match="theta_hist"):
            detect_boundaries(frames, float("nan"), 0.0)
        with pytest.raises(ValueError, match="theta_survive"):
            detect_boundaries(frames, 0.5, float("nan"))
        # inf switches the histogram cue off
        assert detect_boundaries(frames, float("inf"), 0.0) == []

    def test_boundaries_are_plain_ints(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 2)
        rng = rng_stream(5, "shot")
        frames, cuts = synthetic_cut_video(rng, 12, 2)
        got = detect_boundaries(frames, 0.5, 0.5)
        assert got == cuts
        assert all(type(b) is int for b in got)

    def test_bad_frame_named(self):
        frames = [solid(10, 20, 30) for _ in range(4)]
        frames[3] = frames[3].astype(np.float64)
        with pytest.raises(ValueError, match="frame 3: .*float64"):
            detect_boundaries(frames, 0.5, 0.5)

    def test_near_black_fade_has_no_boundaries(self):
        z, o, t = solid(0, 0, 0), solid(1, 1, 1), solid(2, 2, 2)
        assert detect_boundaries([z, z, o, o, t, t], 0.5, 0.0) == []


def searched_pairs(monkeypatch, frames):
    """Record, per survival_ratio call, the index of the pair's first frame."""
    grays = [(f / 255.0).mean(axis=2).tobytes() for f in frames]
    searched = []
    real = shots.survival_ratio

    def recording(sig_a, sig_b):
        searched.append(grays.index(sig_a.gray.tobytes()))
        return real(sig_a, sig_b)

    monkeypatch.setattr(shots, "survival_ratio", recording)
    return searched


class TestShortCircuit:
    def test_equals_eager_rule(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 3)
        rng = rng_stream(12, "shot")
        videos = [synthetic_cut_video(rng, 9, n)[0] for n in (0, 2, 3)]
        # a cut between two noise shots of one colour distribution, which
        # only the survival cue finds at theta_hist 0.3
        a, b = (rng.integers(0, 256, size=(20, 24, 3)).astype(np.uint8) for _ in range(2))
        videos.append([a] * 3 + [b] * 3)
        assert detect_boundaries(videos[-1], 0.3, 0.0) == []
        assert detect_boundaries(videos[-1], 0.3, 0.7) == [3]
        for frames in videos:
            dists, survs = pair_features(frames)
            for th in (0.0, 0.05, 0.3, 0.8, float("inf")):
                for ts in (0.0, 0.3, 0.7, 1.0):
                    want = [int(i) + 1 for i in np.flatnonzero((dists > th) | (survs < ts))]
                    assert detect_boundaries(frames, th, ts) == want

    def test_survival_cue_off_searches_nothing(self, monkeypatch):
        rng = rng_stream(13, "shot")
        frames, cuts = synthetic_cut_video(rng, 10, 2)
        searched = searched_pairs(monkeypatch, frames)
        responses = []
        monkeypatch.setattr(shots, "min_eig_response", lambda gray: responses.append(gray))
        assert detect_boundaries(frames, 0.5, 0.0) == cuts
        assert searched == [] and responses == []

    def test_histogram_fired_pair_never_searched(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 3)
        rng = rng_stream(14, "shot")
        frames, cuts = synthetic_cut_video(rng, 10, 3)
        dists, _ = pair_features(frames)
        assert (dists[[c - 1 for c in cuts]] > 0.5).all()
        searched = searched_pairs(monkeypatch, frames)
        assert detect_boundaries(frames, 0.5, 0.5) == cuts
        assert searched == [i for i in range(len(frames) - 1) if i + 1 not in cuts]


class TestFit:
    def test_fitted_thresholds_reach_high_f(self, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 4)
        rng = rng_stream(7, "shot")
        videos = []
        for _ in range(12):
            frames, cuts = synthetic_cut_video(rng, 8, int(rng.integers(1, 3)))
            videos.append((frames, cuts))
        fit = fit_thresholds(videos)
        assert fit.f_score >= 0.98
        # thresholds generalize to fresh videos from the same process
        frames, cuts = synthetic_cut_video(rng, 10, 2)
        got = detect_boundaries(frames, fit.theta_hist, fit.theta_survive)
        assert boundary_f_score(got, cuts) >= 0.5

    def test_f_score_fixture(self):
        assert boundary_f_score([1, 3], [1, 2]) == 0.5
        assert boundary_f_score([], []) == 1.0
        assert boundary_f_score([], [2]) == 0.0


class TestFitValidation:
    @pytest.mark.parametrize("bad", [0, 6, -1])
    def test_boundary_index_out_of_range(self, bad, monkeypatch):
        monkeypatch.setattr(shots, "SEARCH_RADIUS", 1)
        frames = [solid(90, 120, 40) for _ in range(6)]
        good = [solid(10, 10, 10) for _ in range(4)]
        with pytest.raises(ValueError, match=f"video 1: boundary index {bad} outside 1..5"):
            fit_thresholds([(good, []), (frames, [2, bad])])

    @pytest.mark.parametrize("n", [0, 1])
    def test_video_shorter_than_two_frames(self, n):
        good = [solid(10, 10, 10) for _ in range(4)]
        with pytest.raises(ValueError, match="video 1: need at least 2 frames"):
            fit_thresholds([(good, []), (good[:n], [])])

    def test_bad_frame_names_video_and_frame(self):
        good = [solid(10, 10, 10) for _ in range(4)]
        bad = [solid(10, 10, 10), solid(10, 10, 10).astype(np.float64)]
        with pytest.raises(ValueError, match="video 1: frame 1: .*float64"):
            fit_thresholds([(good, []), (bad, [])])

    def test_no_videos(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_thresholds([])


# run in a fresh interpreter: prints the scipy modules loaded after each step
_IMPORT_PROBE = """
import json, sys
import numpy as np
from charcap import corpus, decoder, linker, multicut, numerics, shots, track_features

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

steps = {"import": loaded()}
rng = numerics.rng_stream(3, "probe")
sig = shots.frame_signature(rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8))
steps["signature"] = loaded()
sig.corners
steps["corners"] = loaded()
print(json.dumps(steps))
"""


class TestScipyOnFirstUse:
    def test_only_filtering_a_frame_loads_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(charcap.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        steps = json.loads(out.stdout.splitlines()[-1])
        assert steps["import"] == []  # all seven modules
        assert steps["signature"] == []  # a histogram and a gray image filter nothing
        assert "scipy.ndimage" in steps["corners"]
