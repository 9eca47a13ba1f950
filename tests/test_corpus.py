import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import references
from charcap import corpus
from charcap.corpus import (
    BOS, EOS, PERSON_TOKENS, Clip, ClipPair, Corpus, CorpusConfig,
    CorpusFormatError, Mention, Track, Vocabulary, export_jsonl, generate_corpus,
    ingest_jsonl, pair_supervision, planted_supervision,
)
from charcap.decoder import C_MAX, P_MAX, build_train_items
from charcap.track_features import Detection, fit_norm_stats, track_stats
from configs import corpus_config

NAME_TOKENS = ("MaleName", "FemaleName")


@pytest.fixture
def small_config(monkeypatch):
    """``corpus_config`` of 12 pairs over 4 characters with 8-wide heads and
    v_global and 6-wide bodies, the keywords overriding; the constants hold
    for the test."""
    def make(**kw):
        return corpus_config(monkeypatch, **{"n_pairs": 12, "n_characters": 4, "D_HEAD": 8,
                                             "D_BODY": 6, "D_GLOBAL": 8, **kw})
    return make


def grid_targets(pair, sup):
    """The decoder's attention targets (tau -> (p, c)) of ``sup`` on the
    pair's grid."""
    tracks = [t for clip in (pair.prev, pair.cur) if clip is not None for t in clip.tracks]
    (item,) = build_train_items(Corpus([pair], Vocabulary.build()), [sup],
                                fit_norm_stats(tracks))
    return item.alpha_targets


class TestGeneration:
    def test_same_config_seed_is_byte_identical(self, tmp_path, small_config):
        paths = []
        for i in range(2):
            c = generate_corpus(small_config(), seed=99)
            p = tmp_path / f"c{i}.jsonl"
            export_jsonl(c, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("config", [
        dict(), dict(n_pairs=32, n_characters=70, max_distractors=60),
        dict(n_pairs=4, two_mention_fraction=0.0, max_distractors=0, emit_frames=True),
        dict(n_pairs=30, two_mention_fraction=1.0, SINGLETON_FRACTION=0.0),
    ], ids=["default", "crowded", "chain", "two-mention"])
    def test_draws_match_the_reference_calls_bitwise(self, tmp_path, monkeypatch, config, seed):
        """The corpus equals the one ``references``' draw calls make, in its
        export bytes and in every track's ``v_stat`` bytes (the reference
        computes them one track at a time).

        ``corpus`` draws ``lo + (hi - lo) * rng.random()`` for
        ``rng.uniform(lo, hi)`` and ``scale * rng.standard_normal()`` for
        ``rng.normal(0, scale)``. That equality assumes numpy's Generator
        rounds the product and the sum in two steps (no fused multiply-add).
        It holds with numpy 2.4.6, and the tier-1 floor job runs this test
        with numpy 1.24."""
        def export(c, name):
            export_jsonl(c, tmp_path / name)
            return ((tmp_path / name).read_bytes(), (tmp_path / f"{name}.meta.json").read_bytes(),
                    [t.v_stat.tobytes() for clip in c.clips for t in clip.tracks])

        config = corpus_config(monkeypatch, **config)
        got = export(generate_corpus(config, seed), "got.jsonl")
        for name in ("make_characters", "described_geometry", "distractor_geometry",
                     "make_detections", "appearance"):
            monkeypatch.setattr(corpus, f"_{name}", getattr(references, name))
        ref = generate_corpus(config, seed)
        for t in (t for clip in ref.clips for t in clip.tracks):
            t.v_stat = references.track_stats(t)
        assert got == export(ref, "ref.jsonl")

    def test_zero_shared_characters_means_all_names(self, small_config):
        c = generate_corpus(small_config(COREF_FRACTION=0.0, n_pairs=30), seed=5)
        for clip in c.clips:
            for m in clip.mentions:
                assert clip.sentence[m.pos] in NAME_TOKENS
                assert m.coref_prev is None

    def test_noiseless_tracks_recover_characters(self, small_config):
        c = generate_corpus(small_config(SIGMA=0.0, MARGIN=1.0, n_pairs=20), seed=3)
        centers = np.stack([ch.head_center for ch in c.characters])
        for clip in c.clips:
            for t in clip.tracks:
                nearest = int(np.argmin(np.linalg.norm(centers - t.v_head, axis=1)))
                assert nearest == clip.track_chars[t.id]

    def test_coref_mentions_have_previous_track(self, small_config):
        c = generate_corpus(small_config(n_pairs=40, COREF_FRACTION=0.8), seed=11)
        saw_coref = False
        for pair in c.pairs:
            for m in pair.cur.mentions:
                if m.coref_prev is None:
                    continue
                saw_coref = True
                assert any(ch == m.coref_prev
                           for ch in pair.prev.track_chars.values())
                # and the coref character really is mentioned in the previous sentence
                assert any(pm.char_id == m.coref_prev for pm in pair.prev.mentions)
        assert saw_coref

    def test_coref_token_iff_previous_mention(self, small_config):
        c = generate_corpus(small_config(n_pairs=40), seed=6)
        for pair in c.pairs:
            prev_chars = {m.char_id for m in pair.prev.mentions}
            for m in pair.cur.mentions:
                tok = pair.cur.sentence[m.pos]
                if m.char_id in prev_chars:
                    assert tok.endswith("Coref") and m.coref_prev == m.char_id
                else:
                    assert tok.endswith("Name") and m.coref_prev is None

    def test_infeasible_margin_raises(self, small_config):
        with pytest.raises(ValueError, match="cannot place 40 characters"):
            generate_corpus(small_config(n_characters=40, D_HEAD=2, MARGIN=10.0),
                            seed=0)

    @pytest.mark.parametrize("field_name, value, extra", [
        ("n_pairs", 0, {}), ("n_characters", 0, {}), ("d_head", 1, {}), ("d_body", 0, {}),
        ("d_global", 6, {}), ("sigma", -0.1, {}), ("margin", 0.0, {}),
        ("max_distractors", -1, {}), ("coref_fraction", 1.5, {}),
        ("two_mention_fraction", -0.5, {}), ("singleton_fraction", 1.2, {}),
        ("singleton_fraction", float("nan"), {}), ("cuts_per_clip", -1, {}),
        ("frames_per_clip", 1, {"emit_frames": True}),
        # values of the wrong type, which would be accepted or fail inside Python
        ("n_pairs", 2.5, {}), ("n_characters", 2.5, {}), ("d_head", 3.0, {}),
        ("frames_per_clip", 3.5, {"emit_frames": True}), ("cuts_per_clip", 1.5, {}),
        ("max_distractors", 1.5, {}), ("n_pairs", True, {}), ("emit_frames", 1, {}),
        ("two_mention_fraction", True, {}), ("two_mention_fraction", 1.5, {})])
    def test_out_of_range_field_raises_naming_it(self, small_config, field_name, value, extra):
        if field_name in {f.name for f in dataclasses.fields(CorpusConfig)}:
            # raised when the config is made, so no corpus sees it
            with pytest.raises(ValueError, match=rf"^CorpusConfig\.{field_name} = "
                                                 rf"{re.escape(repr(value))} is "):
                small_config(**{field_name: value}, **extra)
        else:  # a module constant now, which the config rejects by name
            with pytest.raises(TypeError, match=rf"unexpected keyword argument '{field_name}'"):
                small_config(**{field_name: value}, **extra)

    def test_integer_fraction_is_accepted(self, tmp_path, small_config):
        # a float field takes an integer: the same corpus as the float
        paths = [tmp_path / "int.jsonl", tmp_path / "float.jsonl"]
        for path, fraction in zip(paths, (1, 1.0)):
            export_jsonl(generate_corpus(small_config(two_mention_fraction=fraction), seed=4), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_alpha_targets_match_plant(self, small_config):
        c = generate_corpus(small_config(n_pairs=30, COREF_FRACTION=0.7), seed=8)
        for pair in c.pairs:
            planted = planted_supervision(pair)
            targets = grid_targets(pair, planted)
            for m in pair.cur.mentions:
                p, ci = targets[m.pos]
                assert pair.cur.tracks[ci - 1].id == m.gt_track_ids[0]
                if m.coref_prev is None:
                    assert p == 0
                else:
                    assert planted.prev_grounding[p - 1][1] == m.coref_prev

    def test_singleton_pairs_exist(self, small_config):
        c = generate_corpus(small_config(n_pairs=60, SINGLETON_FRACTION=0.4), seed=2)
        singles = [p for p in c.pairs
                   if len(p.cur.tracks) == 1 and len(p.cur.mentions) == 1]
        assert singles

    def test_frames_and_boundaries(self, small_config):
        c = generate_corpus(small_config(n_pairs=2, emit_frames=True,
                                         FRAMES_PER_CLIP=8, CUTS_PER_CLIP=2), seed=4)
        for clip in c.clips:
            assert len(clip.frames) == 8
            assert clip.frames[0].shape == (24, 32, 3)
            assert len(clip.gt_boundaries) == 2
            assert all(1 <= b < 8 for b in clip.gt_boundaries)


class TestVocabulary:
    def test_person_tokens_exactly_once(self):
        v = Vocabulary.build(["walks", "street"])
        for tok in PERSON_TOKENS:
            assert v.tokens.count(tok) == 1

    def test_duplicate_person_token_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("<bos>", "<eos>", *PERSON_TOKENS, "MaleName"))

    def test_repeated_token_rejected(self):
        with pytest.raises(ValueError, match=r"repeats the tokens \['walks'\]"):
            Vocabulary(("<bos>", "<eos>", *PERSON_TOKENS, "walks", "street", "walks"))

    def test_unknown_token(self):
        v = Vocabulary.build([])
        with pytest.raises(KeyError):
            v.index("nope")


class TestJsonl:
    def test_roundtrip_identity(self, tmp_path, small_config):
        c = generate_corpus(small_config(), seed=42)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        export_jsonl(c, p1)
        back = ingest_jsonl(p1)
        export_jsonl(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back.vocab.tokens == c.vocab.tokens
        assert len(back.pairs) == len(c.pairs)

    @pytest.mark.parametrize("config", [
        dict(COREF_FRACTION=0.0), dict(COREF_FRACTION=1.0),
        dict(two_mention_fraction=1.0, SINGLETON_FRACTION=0.0),
        dict(n_characters=1), dict(n_characters=2, COREF_FRACTION=1.0),
        dict(emit_frames=True, FRAMES_PER_CLIP=5, CUTS_PER_CLIP=2),
    ], ids=["no-coref", "all-coref", "two-mention", "one-character", "two-characters",
            "frames"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_roundtrip_restores_every_planted_fact(self, tmp_path, small_config, config, seed):
        c = generate_corpus(small_config(**config), seed)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_jsonl(c, p1)
        back = ingest_jsonl(p1)
        assert [cl.mentions for cl in back.clips] == [cl.mentions for cl in c.clips]
        assert [cl.gt_boundaries for cl in back.clips] == [cl.gt_boundaries for cl in c.clips]
        export_jsonl(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_crowded_roundtrip_keeps_every_track(self, tmp_path):
        c = generate_corpus(CorpusConfig(n_pairs=32, n_characters=70, max_distractors=60), seed=1)
        assert max(len(clip.tracks) for clip in c.clips) > C_MAX
        p = tmp_path / "crowded.jsonl"
        export_jsonl(c, p)
        back = ingest_jsonl(p)
        assert ([[t.id for t in clip.tracks] for clip in back.clips]
                == [[t.id for t in clip.tracks] for clip in c.clips])

    def test_three_clips_keep_every_track(self, tmp_path, small_config):
        c = generate_corpus(small_config(n_pairs=2), seed=7)
        clips = c.clips[:3]
        # blow up the first clip to 55 tracks
        big = clips[0]
        next_id = max(t.id for t in big.tracks) + 1
        while len(big.tracks) < 55:
            dets = [Detection(t=i, x=1, y=1, w=5, h=5) for i in range(2)]
            t = Track(id=next_id, detections=dets, v_head=np.zeros(8),
                      v_body=np.zeros(6))
            t.v_stat = track_stats([t])[0]
            big.tracks.append(t)
            next_id += 1
        p = tmp_path / "three.jsonl"
        from charcap.corpus import _clip_to_obj
        with open(p, "w") as fh:
            for clip in clips:
                fh.write(json.dumps(_clip_to_obj(clip)) + "\n")
        back = ingest_jsonl(p)
        assert len(back.clips) == 3
        assert len(back.pairs) == 2
        assert back.pairs[1].prev is None
        assert [t.id for t in back.clips[0].tracks] == [t.id for t in big.tracks]
        assert len(big.tracks) == 55

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": 1}\nnot json\n')
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert exc.value.line in (1, 2)

    @pytest.mark.parametrize("keys, value, field_name", [
        (("tracks", 0), 7, "tracks"),
        (("mentions", 0), 7, "mentions"),
        (("tracks", 0, "boxes", 0, 0), "left", "boxes"),
        (("tracks", 0, "frames", 0), "first", "frames"),
        (("tracks", 0, "score", 0), "high", "score"),
        (("frames",), {"shape": [1, 1, 1, 2], "uint8": "AAA="}, "frames"),
        (("frames",), {"shape": [2, 1, 1, 3], "uint8": "AAAA"}, "frames"),
    ], ids=["track-not-object", "mention-not-object", "box-string", "frame-index-string",
            "score-string", "two-channel-frame", "frame-shapes-differ"])
    def test_malformed_value_names_field_and_line(self, tmp_path, small_config, keys, value,
                                                  field_name):
        c = generate_corpus(small_config(n_pairs=1), seed=1)
        p = tmp_path / "c.jsonl"
        export_jsonl(c, p)
        lines = p.read_text().splitlines()
        obj = json.loads(lines[1])
        target = obj
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        lines[1] = json.dumps(obj)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (2, field_name)

    def test_gt_track_must_exist(self, tmp_path, small_config):
        c = generate_corpus(small_config(n_pairs=1), seed=1)
        p = tmp_path / "c.jsonl"
        export_jsonl(c, p)
        lines = p.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["mentions"][0]["gt_tracks"] = [999]
        lines[1] = json.dumps(obj)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert exc.value.field == "gt_tracks"

    def test_empty_frame_list_roundtrips(self, tmp_path, small_config):
        c = generate_corpus(small_config(n_pairs=1), seed=1)
        c.clips[1].frames = []
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_jsonl(c, p1)
        back = ingest_jsonl(p1)
        assert back.clips[1].frames == [] and back.clips[0].frames is None
        export_jsonl(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("frames", [
        [np.full((2, 2, 3), 300, dtype=np.int64)],
        [np.zeros((2, 2, 3), dtype=np.int64)],
        [np.zeros((2, 2, 3), dtype=np.float64)],
        [np.zeros((2, 2, 3), dtype=np.uint8).tolist()],
        [np.zeros((2, 2, 2), dtype=np.uint8)],
        [np.zeros((2, 2), dtype=np.uint8)],
        [np.zeros((0, 2, 3), dtype=np.uint8)],
        [np.zeros((2, 2, 3), dtype=np.uint8), np.zeros((2, 3, 3), dtype=np.uint8)],
        [np.zeros((2, 2, 3), dtype=np.uint8), np.zeros((2, 2, 3), dtype=np.int64)],
    ], ids=["pixel-300", "int64", "float", "nested-list", "two-channel", "two-axes",
            "zero-height", "shapes-differ", "second-frame-int64"])
    def test_export_rejects_frames_not_uint8_grids(self, tmp_path, small_config, frames):
        c = generate_corpus(small_config(n_pairs=1), seed=1)
        c.clips[1].frames = frames
        with pytest.raises(ValueError, match=rf"clip {c.clips[1].id}: frames"):
            export_jsonl(c, tmp_path / "c.jsonl")

    @pytest.mark.parametrize("edit", [
        lambda m: {"gender": "F" if m.gender == "M" else "M"},
        lambda m: {"coref_prev": m.char_id if m.coref_prev is None else None},
        lambda m: {"coref_prev": m.char_id + 1},
        lambda m: {"pos": 1},  # the verb
        lambda m: {"pos": 3},  # past the sentence
    ], ids=["gender", "coref-flipped", "coref-other-character", "verb", "past-the-end"])
    def test_export_rejects_a_mention_its_token_contradicts(self, tmp_path, small_config, edit):
        # ingest would read the token's gender and co-reference, not the mention's
        c = generate_corpus(small_config(n_pairs=2, COREF_FRACTION=0.5), seed=3)
        for clip in c.clips:
            m = clip.mentions[0]
            clip.mentions[0] = dataclasses.replace(m, **edit(m))
            with pytest.raises(ValueError, match=rf"clip {clip.id}: mention at pos "
                                                 rf"{clip.mentions[0].pos} "):
                export_jsonl(c, tmp_path / "c.jsonl")
            clip.mentions[0] = m

    @pytest.mark.parametrize("tid", [0, -1])
    def test_export_rejects_a_track_id_below_1(self, tmp_path, small_config, tid):
        c = generate_corpus(small_config(n_pairs=1), seed=1)
        c.clips[1].tracks[0].id = tid
        with pytest.raises(ValueError, match=rf"clip {c.clips[1].id}: track id {tid} "):
            export_jsonl(c, tmp_path / "c.jsonl")

    def test_export_rejects_two_mentions_at_one_pos(self, tmp_path, small_config):
        c = generate_corpus(small_config(n_pairs=1), seed=1)
        clip = c.clips[1]
        clip.mentions.append(dataclasses.replace(clip.mentions[0], gt_track_ids=[]))
        with pytest.raises(ValueError, match=rf"clip {clip.id}: two mentions at pos "
                                             rf"{clip.mentions[0].pos}$"):
            export_jsonl(c, tmp_path / "c.jsonl")

    def test_nested_list_frames_rejected(self, tmp_path, small_config):
        c = generate_corpus(small_config(n_pairs=1, emit_frames=True,
                                         FRAMES_PER_CLIP=3, CUTS_PER_CLIP=1), seed=2)
        p = tmp_path / "c.jsonl"
        export_jsonl(c, p)
        objs = [json.loads(line) for line in p.read_text().splitlines()]
        objs[1]["frames"] = [f.tolist() for f in c.clips[1].frames]
        _write_lines(p, objs)
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (2, "frames")

    @pytest.mark.parametrize("boundaries", [[99], [0], [4], [1, 4]],
                             ids=["far-past-end", "zero", "last-frame", "second-past-end"])
    def test_boundary_outside_the_clips_frames_names_clip(self, tmp_path, small_config,
                                                          boundaries):
        p, objs = _exported_lines(tmp_path, small_config, emit_frames=True, FRAMES_PER_CLIP=4,
                                  CUTS_PER_CLIP=1)
        objs[1]["gt_boundaries"] = boundaries
        _write_lines(p, objs)
        with pytest.raises(CorpusFormatError, match=r"in 1\.\.3") as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (2, "gt_boundaries")
        objs[1]["gt_boundaries"] = [1, 3]
        _write_lines(p, objs)
        assert ingest_jsonl(p).clips[1].gt_boundaries == [1, 3]

    @pytest.mark.parametrize("line", [2, 3, 4])
    def test_repeated_clip_id_names_its_line(self, tmp_path, small_config, line):
        p, objs = _exported_lines(tmp_path, small_config)
        objs[line - 1]["id"] = objs[0]["id"]
        _write_lines(p, objs)
        with pytest.raises(CorpusFormatError, match=f"clip id {objs[0]['id']} repeats") as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (line, "id")

    def test_frames_survive_roundtrip(self, tmp_path, small_config):
        c = generate_corpus(small_config(n_pairs=2, emit_frames=True,
                                         FRAMES_PER_CLIP=5, CUTS_PER_CLIP=2), seed=9)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_jsonl(c, p1)
        back = ingest_jsonl(p1)
        export_jsonl(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text().splitlines()[0])["frames"]["shape"] == [5, 24, 32, 3]
        for orig, got in zip(c.clips, back.clips, strict=True):
            assert len(got.frames) == len(orig.frames) == 5
            for f, g in zip(orig.frames, got.frames):
                assert g.dtype == np.uint8 and g.shape == f.shape and g.flags.writeable
                np.testing.assert_array_equal(g, f)
            assert got.gt_boundaries == orig.gt_boundaries

    def test_split(self, small_config):
        c = generate_corpus(small_config(n_pairs=10), seed=3)
        a, b = c.split(7)
        assert len(a.pairs) == 7 and len(b.pairs) == 3
        assert a.vocab.tokens == b.vocab.tokens


def _exported_lines(tmp_path, small_config, **config):
    """An exported two-pair corpus: its path and its lines, parsed."""
    p = tmp_path / "c.jsonl"
    export_jsonl(generate_corpus(small_config(n_pairs=2, **config), seed=1), p)
    return p, [json.loads(line) for line in p.read_text().splitlines()]


def _write_lines(p, objs):
    p.write_text("".join(json.dumps(o) + "\n" for o in objs))


def _replace(obj, keys, value):
    for k in keys[:-1]:
        obj = obj[k]
    obj[keys[-1]] = value


def _assert_valid(c):
    """The invariants later stages rely on, for a corpus ingest returned."""
    widths = {}
    for pair in c.pairs:
        for clip in (pair.prev, pair.cur):
            if clip is None:
                continue
            assert isinstance(clip.id, int) and not isinstance(clip.id, bool)
            vectors = [("v_global", clip.v_global)]
            for t in clip.tracks:
                assert isinstance(t.id, int) and not isinstance(t.id, bool) and t.id >= 1
                assert np.isfinite(t.v_stat).all()
                vectors += [("v_head", t.v_head), ("v_body", t.v_body)]
                for d in t.detections:
                    assert all(math.isfinite(v) for v in (d.x, d.y, d.w, d.h, d.score))
                    assert d.w > 0 and d.h > 0
            for name, v in vectors:
                assert v.ndim == 1 and v.dtype == np.float64 and np.isfinite(v).all()
                assert widths.setdefault(name, v.size) == v.size
            for tok in clip.sentence:
                c.vocab.index(tok)
            if clip.frames is not None:
                for f in clip.frames:
                    assert f.dtype == np.uint8 and f.shape == clip.frames[0].shape
                    assert f.ndim == 3 and f.shape[2] == 3 and f.flags.writeable
            ids = {t.id for t in clip.tracks}
            assert len({m.pos for m in clip.mentions}) == len(clip.mentions)
            for m in clip.mentions:
                assert isinstance(m.char_id, int) and not isinstance(m.char_id, bool)
                assert set(m.gt_track_ids) <= ids
                if m.coref_prev is not None:
                    assert clip is pair.cur and pair.prev is not None
                    assert m.coref_prev in {pm.char_id for pm in pair.prev.mentions}


def _paths(obj, prefix=()):
    """Every key path inside a parsed JSON line, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


class TestIngestErrors:
    @pytest.mark.parametrize("line, keys, value, field_name", [
        (2, ("tracks", 0, "v_head", 0), "a", "v_head"),
        (2, ("tracks", 0, "v_body", 1), "a", "v_body"),
        (2, ("v_global", 0), "a", "v_global"),
        (2, ("tracks", 0, "v_head"), [[1.0, 2.0]] * 4, "v_head"),
        (2, ("v_global", 3), float("nan"), "v_global"),
        (2, ("v_global", 3), float("inf"), "v_global"),
        (2, ("tracks", 0, "id"), "x", "id"),
        (2, ("tracks", 0, "id"), [1], "id"),
        # 0 is the decoder's null slot
        (2, ("tracks", 0, "id"), 0, "id"),
        (2, ("tracks", 0, "id"), -1, "id"),
        (2, ("id",), "1", "id"),
        (2, ("id",), [1], "id"),
        (2, ("id",), True, "id"),
        (2, ("mentions", 0, "char"), "x", "char"),
        (2, ("mentions", 0, "char"), [1], "char"),
        (2, ("tracks", 0, "boxes", 0, 2), float("nan"), "boxes"),
        (2, ("tracks", 0, "boxes", 0, 0), float("-inf"), "boxes"),
        (2, ("tracks", 0, "score", 0), float("nan"), "score"),
        (2, ("tracks", 0, "boxes", 0, 0), 1e200, "boxes"),
        (2, ("v_global",), [0.0, 1.0, 2.0], "v_global"),
        (2, ("sentence", 1), "flies", "sentence"),
        # in the vocabulary, but the decoder would train an end of sentence mid-sentence
        (2, ("sentence", 1), EOS, "sentence"),
        (2, ("sentence", 1), BOS, "sentence"),
        # a Coref token whose character the pair's previous clip does not mention
        (2, ("sentence", 0), "MaleCoref", "char"),
        (3, ("sentence", 0), "MaleCoref", "char"),
        # older files wrote each mention's gender and coref_prev beside its token
        (2, ("mentions", 0, "gender"), "M", "gender"),
        (2, ("mentions", 0, "coref_prev"), None, "coref_prev"),
        # a clip's cuts, on a clip without frames
        (3, ("gt_boundaries",), 5, "gt_boundaries"),
        (3, ("gt_boundaries",), {"0": [1]}, "gt_boundaries"),
        (3, ("gt_boundaries",), ["x"], "gt_boundaries"),
        (3, ("gt_boundaries",), [True], "gt_boundaries"),
        (3, ("gt_boundaries",), [1.0], "gt_boundaries"),
        (3, ("gt_boundaries",), [0], "gt_boundaries"),
    ], ids=["v_head-string", "v_body-string", "v_global-string", "v_head-nested",
            "v_global-nan", "v_global-inf", "track-id-string", "track-id-list",
            "track-id-zero", "track-id-negative",
            "clip-id-string", "clip-id-list", "clip-id-bool",
            "char-string", "char-list", "box-width-nan", "box-x-inf", "score-nan",
            "box-x-overflows-stats", "v_global-width", "token-not-in-vocab",
            "sentence-eos", "sentence-bos",
            "coref-not-in-previous-clip", "coref-without-previous-clip",
            "mention-gender", "mention-coref_prev", "boundaries-number", "boundaries-object",
            "boundaries-string", "boundaries-bool", "boundaries-float", "boundaries-zero"])
    def test_malformed_value_names_field_and_line(self, tmp_path, small_config, line, keys,
                                                  value, field_name):
        p, objs = _exported_lines(tmp_path, small_config)
        _replace(objs[line - 1], keys, value)
        _write_lines(p, objs)
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (line, field_name)

    @pytest.mark.parametrize("line", [1, 3])
    @pytest.mark.parametrize("data", [b'{"id": "\xff"}', b"[" * 100000 + b"]" * 100000],
                             ids=["not-utf8", "nested-past-the-recursion-limit"])
    def test_undecodable_line_names_json_and_line(self, tmp_path, small_config, data, line):
        p, _ = _exported_lines(tmp_path, small_config)
        lines = p.read_bytes().splitlines()
        lines[line - 1] = data
        p.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (line, "<json>")

    def test_second_mention_at_one_position_names_pos(self, tmp_path, small_config):
        # the decoder keys attention targets by position, so one would be lost
        p, objs = _exported_lines(tmp_path, small_config)
        objs[1]["mentions"].append(dict(objs[1]["mentions"][0], gt_tracks=[]))
        _write_lines(p, objs)
        with pytest.raises(CorpusFormatError, match="a second mention at position") as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (2, "pos")

    @pytest.mark.parametrize("first, then", [("score", "boxes"), ("boxes", "score")])
    def test_first_track_whose_statistics_overflow_is_named(self, tmp_path, small_config, first,
                                                            then):
        p, objs = _exported_lines(tmp_path, small_config)
        tracks = objs[1]["tracks"]
        tracks.append(json.loads(json.dumps(tracks[0])))
        tracks[-1]["id"] = max(t["id"] for t in tracks) + 1
        for track, fault in ((tracks[0], first), (tracks[-1], then)):
            _replace(track, ("score", 0) if fault == "score" else ("boxes", 0, 0), 1e200)
        _write_lines(p, objs)
        with pytest.raises(CorpusFormatError, match="overflow the track statistics") as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (2, first)

    @pytest.mark.parametrize("edit, field_name", [
        (lambda m: "{not json", "<json>"),
        (lambda m: "[" * 100000 + "]" * 100000, "<json>"),
        (lambda m: [m], "<root>"),
        (lambda m: {**m, "d_head": "8"}, "d_head"),
        (lambda m: {**m, "d_head": True}, "d_head"),
        (lambda m: {**m, "d_body": 0}, "d_body"),
        (lambda m: {**m, "d_global": 2.5}, "d_global"),
        (lambda m: {**m, "vocab": "abc"}, "vocab"),
        (lambda m: {**m, "vocab": m["vocab"] + [1]}, "vocab"),
        (lambda m: {**m, "vocab": m["vocab"] + m["vocab"][:1]}, "vocab"),
        (lambda m: {**m, "vocab": [t for t in m["vocab"] if t != BOS]}, "vocab"),
        (lambda m: {**m, "vocab": [t for t in m["vocab"] if t != EOS]}, "vocab"),
        (lambda m: {**m, "vocab": [t for t in m["vocab"] if t != "FemaleCoref"]}, "vocab"),
        (lambda m: {**m, "gt_boundaries": {"0": 5}}, "gt_boundaries"),
        (lambda m: {**m, "gt_boundaries": {"0": ["x"]}}, "gt_boundaries"),
        (lambda m: {**m, "gt_boundaries": {"0": [True]}}, "gt_boundaries"),
        (lambda m: {**m, "gt_boundaries": [1]}, "gt_boundaries"),
        (lambda m: {**m, "gt_boundaries": {"0": [1]}}, "gt_boundaries"),
    ], ids=["not-json", "nested-past-the-recursion-limit", "not-an-object", "d_head-string", "d_head-bool", "d_body-zero",
            "d_global-float", "vocab-string", "vocab-number", "vocab-duplicate",
            "vocab-without-bos", "vocab-without-eos", "vocab-without-a-person-token",
            "boundaries-number", "boundaries-strings", "boundaries-bools",
            "boundaries-list", "boundaries-old-format"])
    def test_malformed_meta_names_its_key(self, tmp_path, small_config, edit, field_name):
        p, _ = _exported_lines(tmp_path, small_config)
        meta_path = tmp_path / "c.jsonl.meta.json"
        meta = edit(json.loads(meta_path.read_text()))
        meta_path.write_text(meta if isinstance(meta, str) else json.dumps(meta))
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (None, field_name)

    @pytest.mark.parametrize("block", [
        [], "AAAA", None,
        {"uint8": "AAAA"}, {"shape": "1,1,1,3", "uint8": "AAAA"},
        {"shape": [1, 1, 3], "uint8": "AAAA"}, {"shape": [1, 1, 1, 3, 1], "uint8": "AAAA"},
        {"shape": [True, 1, 1, 3], "uint8": "AAAA"}, {"shape": [1.0, 1, 1, 3], "uint8": "AAAA"},
        {"shape": ["1", 1, 1, 3], "uint8": "AAAA"}, {"shape": [-1, 1, 1, 3], "uint8": ""},
        {"shape": [1, 0, 1, 3], "uint8": ""}, {"shape": [1, 1, 0, 3], "uint8": ""},
        {"shape": [1, 1, 3, 1], "uint8": "AAAA"}, {"shape": [1, 1, 1, 4], "uint8": "AAAAAA=="},
        {"shape": [1, 1, 1, 3]}, {"shape": [1, 1, 1, 3], "uint8": [0, 0, 0]},
        {"shape": [1, 1, 1, 3], "uint8": 0}, {"shape": [1, 1, 1, 3], "uint8": "AA*A"},
        {"shape": [1, 1, 1, 3], "uint8": "AAAA\n"}, {"shape": [1, 1, 1, 3], "uint8": "AAA"},
        {"shape": [1, 1, 1, 3], "uint8": "AAAAAA==AA=="},
        {"shape": [1, 1, 1, 3], "uint8": "AAA\u00e9"},
        {"shape": [1, 1, 1, 3], "uint8": "AAA="}, {"shape": [1, 1, 1, 3], "uint8": "AAAAAA=="},
        {"shape": [2, 1, 1, 3], "uint8": "AAAA"}, {"shape": [0, 1, 1, 3], "uint8": "AAAA"},
        {"shape": [10 ** 30, 1, 1, 3], "uint8": "AAAA"},
    ], ids=["list", "string", "null", "shape-missing", "shape-string", "shape-three-entries",
            "shape-five-entries", "shape-bool", "shape-float", "shape-entry-string",
            "n-negative", "height-zero", "width-zero", "channels-not-last", "four-channels",
            "uint8-missing", "uint8-list", "uint8-number", "uint8-bad-character",
            "uint8-newline", "uint8-bad-padding", "uint8-data-after-padding",
            "uint8-non-ascii", "bytes-short", "bytes-long", "second-frame-missing",
            "no-frames-with-bytes", "huge-shape"])
    def test_malformed_frames_block_names_frames_and_line(self, tmp_path, small_config, block):
        p, objs = _exported_lines(tmp_path, small_config)
        objs[1]["frames"] = block
        _write_lines(p, objs)
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (2, "frames")

    def test_coref_into_a_previous_clip_without_mentions_rejected(self, tmp_path, small_config):
        p, objs = _exported_lines(tmp_path, small_config)
        # line 2 co-refers to the character line 1 mentions, and ingests ...
        objs[1]["sentence"][0] = objs[0]["sentence"][0].replace("Name", "Coref")
        objs[1]["mentions"][0]["char"] = objs[0]["mentions"][0]["char"]
        _write_lines(p, objs)
        assert ingest_jsonl(p).clips[1].mentions[0].coref_prev == objs[0]["mentions"][0]["char"]
        # ... until line 1 mentions no one
        objs[0]["mentions"] = []
        _write_lines(p, objs)
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (2, "char")

    def test_vector_width_must_match_earlier_clips_without_meta(self, tmp_path, small_config):
        p, objs = _exported_lines(tmp_path, small_config)
        (tmp_path / "c.jsonl.meta.json").unlink()
        ingest_jsonl(p)  # the unedited corpus needs no meta
        objs[2]["tracks"][0]["v_body"] = [1.0]
        _write_lines(p, objs)
        with pytest.raises(CorpusFormatError) as exc:
            ingest_jsonl(p)
        assert (exc.value.line, exc.value.field) == (3, "v_body")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_one_field_replaced_gives_typed_error_or_valid_corpus(self, tmp_path,
                                                                       small_config, data):
        p, objs = _exported_lines(tmp_path, small_config)
        line = data.draw(st.integers(0, len(objs) - 1), label="line")
        keys = data.draw(st.sampled_from(list(_paths(objs[line]))), label="path")
        _replace(objs[line], keys, data.draw(JSON_VALUES, label="value"))
        _write_lines(p, objs)
        # a clip id made equal to another clip's is named on the later of the two lines
        cid = objs[line]["id"]
        same = [i for i, o in enumerate(objs) if type(cid) is int and o["id"] == cid]
        try:
            back = ingest_jsonl(p)
        except CorpusFormatError as exc:
            assert exc.line == max(same, default=line) + 1
        else:
            _assert_valid(back)


    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_frames_entry_replaced_gives_frames_error_or_valid_corpus(self, tmp_path,
                                                                           small_config, data):
        p, objs = _exported_lines(tmp_path, small_config, emit_frames=True, FRAMES_PER_CLIP=3,
                                  CUTS_PER_CLIP=1)
        line = data.draw(st.integers(0, len(objs) - 1), label="line")
        keys = data.draw(st.sampled_from([("frames",), *_paths(objs[line]["frames"],
                                                                ("frames",))]), label="path")
        _replace(objs[line], keys, data.draw(JSON_VALUES, label="value"))
        _write_lines(p, objs)
        try:
            back = ingest_jsonl(p)
        except CorpusFormatError as exc:
            assert (exc.line, exc.field) == (line + 1, "frames")
        else:
            _assert_valid(back)


def _track(tid, n=3):
    dets = [Detection(t=i, x=0, y=0, w=10, h=10) for i in range(n)]
    t = Track(id=tid, detections=dets, v_head=np.zeros(2), v_body=np.zeros(2))
    t.v_stat = track_stats([t])[0]
    return t


def _pair(prev_tracks, cur_tracks, prev_mentions=(), cur_mentions=()):
    def clip(cid, tracks, mentions):
        return Clip(id=cid, tracks=tracks, v_global=np.zeros(8), sentence=[],
                    mentions=list(mentions))
    return ClipPair(id=0, prev=clip(0, prev_tracks, prev_mentions),
                    cur=clip(1, cur_tracks, cur_mentions))


class TestPairSupervision:
    def test_character_mentioned_twice_gives_one_candidate(self):
        a = Mention(0, char_id=5, gender="M", gt_track_ids=[1])
        b = Mention(2, char_id=5, gender="M", gt_track_ids=[1])
        m = Mention(0, char_id=5, gender="M", gt_track_ids=[3], coref_prev=5)
        pair = _pair([_track(1), _track(2)], [_track(3)], [a, b], [m])
        # the linker may ground the second mention in another track
        sup = pair_supervision(pair, [(a, 1), (b, 2)], [(m, 3)])
        assert sup.prev_grounding == [(1, 5, "M")]
        assert sup.links == [(m, 3)]
        assert grid_targets(pair, sup) == {0: (1, 1)}

    def test_candidates_capped_at_p_max(self):
        prev = [Mention(k, char_id=k, gender="F", gt_track_ids=[k + 1])
                for k in range(P_MAX + 2)]
        kept = Mention(0, char_id=P_MAX - 1, gender="F", gt_track_ids=[100],
                       coref_prev=P_MAX - 1)
        capped = Mention(2, char_id=P_MAX, gender="F", gt_track_ids=[101],
                         coref_prev=P_MAX)
        pair = _pair([_track(k + 1) for k in range(P_MAX + 2)],
                     [_track(100), _track(101)], prev, [kept, capped])
        sup = pair_supervision(pair, [(m, m.gt_track_ids[0]) for m in prev],
                               [(kept, 100), (capped, 101)])
        # the corpus keeps every candidate; the decoder's grid takes the first P_MAX
        assert [g[1] for g in sup.prev_grounding] == list(range(P_MAX + 2))
        assert grid_targets(pair, sup) == {0: (P_MAX, 1), 2: (0, 2)}

    def test_current_track_past_c_max_gives_no_target(self):
        # the grid keeps the C_MAX longest tracks; track 1 is the shortest
        cur = [_track(1, n=2)] + [_track(k, n=3) for k in range(2, C_MAX + 2)]
        lost = Mention(0, char_id=1, gender="M", gt_track_ids=[1])
        kept = Mention(2, char_id=2, gender="M", gt_track_ids=[2])
        pair = _pair([], cur, (), [lost, kept])
        sup = pair_supervision(pair, [], [(lost, 1), (kept, 2)])
        assert sup.links == [(lost, 1), (kept, 2)]
        assert grid_targets(pair, sup) == {2: (0, 1)}

    @pytest.mark.parametrize("tid", [1, 9], ids=["previous-clip-track", "unknown-track"])
    def test_link_outside_the_current_clip_raises(self, tid):
        m = Mention(0, char_id=1, gender="M", gt_track_ids=[3])
        pair = _pair([_track(1)], [_track(3)], (), [m])
        tracks = pair.prev.tracks + pair.cur.tracks
        with pytest.raises(ValueError, match=rf"pair 0: linked track {tid} "):
            build_train_items(Corpus([pair], Vocabulary.build()),
                              [pair_supervision(pair, [], [(m, tid)])], fit_norm_stats(tracks))

    def test_planted_and_equal_linked_groundings_agree(self, small_config):
        c = generate_corpus(small_config(n_pairs=30, COREF_FRACTION=0.7,
                                         two_mention_fraction=0.6), seed=8)

        def linked(clip):  # the track planted for each mention's character
            owner = {ch: tid for tid, ch in clip.track_chars.items()}
            return [(m, owner[m.char_id])
                    for m in sorted(clip.mentions, key=lambda m: m.pos)]

        for pair in c.pairs:
            sup = pair_supervision(pair, linked(pair.prev), linked(pair.cur))
            assert sup == planted_supervision(pair)
