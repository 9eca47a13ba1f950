import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from charcap import decoder
from charcap.corpus import (
    BOS, EOS, PERSON_TOKENS, Clip, ClipPair, CorpusConfig, Vocabulary, generate_corpus,
    planted_supervision,
)
from charcap.decoder import (
    C_MAX, DecoderConfig, PairFeatures, attention_step,
    build_train_items, decode_pair, init_decoder_params, load_checkpoint,
    pair_features, save_checkpoint, sentence_loss, train_decoder,
)
from charcap.decoder import TrainItem, attention_terms
from charcap.linker import LinkerConfig
from charcap.numerics import (
    TrainingDiverged, lstm_step_backward, lstm_step_forward, rng_stream, zeros_like_params,
)
from charcap.track_features import Detection, Track, fit_norm_stats, track_stats
import references
from configs import corpus_config
from test_corpus import JSON_VALUES, _paths, _replace
from references import finite_diff_check, softmax


TINY = dict(d_head=5, d_body=4, d_stat=11, d_global=7)  # the feature widths of the tiny tests


def tiny_decoder_cfg(**kw):
    base = dict(d_att=6, d_emb=5, hidden=8)
    base.update(kw)
    return DecoderConfig(**base)


def rand_feats(rng, C, P, widths=TINY, c_slots=None, p_slots=None):
    c_slots = c_slots or C
    p_slots = p_slots or P
    d_head, d_body, d_stat = widths["d_head"], widths["d_body"], widths["d_stat"]
    ch = np.zeros((max(c_slots, 1), d_head))
    cb = np.zeros((max(c_slots, 1), d_body))
    cs = np.zeros((max(c_slots, 1), d_stat))
    cv = np.zeros(max(c_slots, 1), dtype=bool)
    ch[:C] = rng.normal(size=(C, d_head))
    cb[:C] = rng.normal(size=(C, d_body))
    cs[:C] = rng.normal(size=(C, d_stat))
    cv[:C] = True
    ph = np.zeros((p_slots, d_head))
    pv = np.zeros(p_slots, dtype=bool)
    ph[:P] = rng.normal(size=(P, d_head))
    pv[:P] = True
    return PairFeatures(cur_head=ch, cur_body=cb, cur_stat=cs, prev_head=ph,
                        v_global=rng.normal(size=widths["d_global"]),
                        cur_valid=cv, prev_valid=pv,
                        cur_track_ids=list(range(1, max(c_slots, 1) + 1)),
                        prev_track_ids=list(range(1, p_slots + 1)))


def planted(corpus):
    return [planted_supervision(p) for p in corpus.pairs]


def pair_loss(params, vocab, feats, sentence, targets=None):
    """``sentence_loss`` of a batch of one pair, with its losses as floats
    and its weight gradients added into zeros."""
    total, word, att, grads, skipped = sentence_loss(
        params, vocab, [TrainItem(0, feats, sentence, targets or {})],
        zeros_like_params(params))
    return total[0], word[0], att[0], grads, skipped


@pytest.fixture(scope="module")
def separable():
    with pytest.MonkeyPatch.context() as mp:
        ccfg = corpus_config(mp, n_pairs=150, n_characters=6, D_HEAD=16, D_BODY=8,
                             D_GLOBAL=12, COREF_FRACTION=0.6, two_mention_fraction=0.3,
                             SINGLETON_FRACTION=0.1)
        corpus = generate_corpus(ccfg, seed=21)
        train, test = corpus.split(120)
        mp.setattr(decoder, "LR", 0.005)
        dcfg = DecoderConfig(d_att=32, d_emb=16, hidden=48, epochs=25)
        trained = train_decoder(train, planted(train), dcfg, seed=5)
    return trained, train, test


def _track(tid, n):
    dets = [Detection(t=i, x=0, y=0, w=10, h=10) for i in range(n)]
    t = Track(id=tid, detections=dets, v_head=np.zeros(2), v_body=np.zeros(2))
    t.v_stat = track_stats([t])[0]
    return t


def _cur_track_ids(cur_tracks, prev_tracks=(), grounding=()):
    """``pair_features``' current-track ids of a pair of bare tracks."""
    clip = dict(v_global=np.zeros(7), sentence=[], mentions=[])
    pair = ClipPair(0, Clip(0, list(prev_tracks), **clip), Clip(1, list(cur_tracks), **clip))
    norm = fit_norm_stats(list(cur_tracks) + list(prev_tracks))
    return pair_features(pair, list(grounding), norm).cur_track_ids


class TestTrackCap:
    def test_planted_targets_index_the_capped_tracks(self):
        # clips with up to 62 tracks, where some mentioned tracks sit past
        # position C_MAX in the clip's track list
        corpus = generate_corpus(CorpusConfig(n_pairs=200, n_characters=70,
                                              max_distractors=60), seed=11)
        norm = fit_norm_stats([t for clip in corpus.clips for t in clip.tracks])
        assert max(len(p.cur.tracks) for p in corpus.pairs) > C_MAX
        sup = planted(corpus)
        items = build_train_items(corpus, sup, norm)
        for pair, s, item in zip(corpus.pairs, sup, items):
            for m in pair.cur.mentions:
                p, ci = item.alpha_targets[m.pos]
                assert ci <= C_MAX
                assert item.feats.cur_track_ids[ci - 1] == m.gt_track_ids[0]
                if m.coref_prev is None:
                    assert p == 0
                else:
                    assert s.prev_grounding[p - 1][1] == m.coref_prev

    def test_keeps_longest(self):
        ids = _cur_track_ids([_track(i, n=i + 1) for i in range(60)])
        assert len(ids) == C_MAX == 50
        assert min(ids) == 10  # the ten shortest tracks, ids 0-9, are dropped

    def test_no_cap_below_limit(self):
        assert _cur_track_ids([_track(i, n=3) for i in (4, 2, 7, 1, 5)]) == [4, 2, 7, 1, 5]

    def test_grounding_track_outside_the_previous_clip_raises(self):
        prev = [_track(1, n=3), _track(2, n=3)]
        assert _cur_track_ids([_track(5, n=3)], prev, [(2, 0, "M")]) == [5]
        with pytest.raises(ValueError, match=r"pair 0: previous-grounding track 9 "):
            _cur_track_ids([_track(5, n=3)], prev, [(1, 0, "M"), (9, 1, "F")])


class TestAttentionStep:
    def test_singleton_grid(self):
        cfg = tiny_decoder_cfg()
        params = init_decoder_params(cfg, 8, **TINY, seed=0)
        rng = rng_stream(0, "att")
        feats = rand_feats(rng, C=1, P=0)
        alpha, v_gr, _ = attention_step(params, rng.normal(size=cfg.hidden), feats)
        assert alpha.shape == (1, 1)
        assert alpha[0, 0] == 1.0

    def test_zero_weights_give_uniform(self):
        cfg = tiny_decoder_cfg()
        params = {k: np.zeros_like(v)
                  for k, v in init_decoder_params(cfg, 8, **TINY, seed=0).items()}
        rng = rng_stream(1, "att")
        feats = rand_feats(rng, C=5, P=3)
        alpha, _, _ = attention_step(params, np.zeros(cfg.hidden), feats)
        np.testing.assert_allclose(alpha, 1.0 / 20.0)

    def test_normalized_with_padding_zero_mass(self):
        cfg = tiny_decoder_cfg()
        rng = rng_stream(2, "att")
        for _ in range(25):
            C = int(rng.integers(1, 51))
            P = int(rng.integers(0, 8))
            params = init_decoder_params(cfg, 8, **TINY, seed=int(rng.integers(1000)))
            feats = rand_feats(rng, C, P, c_slots=50, p_slots=7)
            alpha, _, _ = attention_step(params, rng.normal(size=cfg.hidden), feats)
            assert alpha.shape == (8, 50)
            assert abs(alpha.sum() - 1.0) <= 1e-9
            assert (alpha[:, C:] == 0.0).all()
            assert (alpha[P + 1:, :] == 0.0).all()

    def test_grounded_vector_in_cell_hull(self):
        cfg = tiny_decoder_cfg()
        params = init_decoder_params(cfg, 8, **TINY, seed=4)
        rng = rng_stream(4, "att")
        feats = rand_feats(rng, C=4, P=2)
        alpha, v_gr, cache = attention_step(params, rng.normal(size=cfg.hidden),
                                            feats)
        cell = cache[3]  # (P+1, C, d_gr) concatenated cell features
        flat = cell.reshape(-1, cell.shape[2])
        assert (v_gr >= flat.min(axis=0) - 1e-12).all()
        assert (v_gr <= flat.max(axis=0) + 1e-12).all()

    def test_zero_tracks_flagged(self):
        cfg = tiny_decoder_cfg()
        params = init_decoder_params(cfg, 8, **TINY, seed=5)
        rng = rng_stream(5, "att")
        feats = rand_feats(rng, C=0, P=0)
        alpha, v_gr, cache = attention_step(params, np.zeros(cfg.hidden), feats)
        assert alpha.shape == (1, 1) and (alpha == 0).all()
        assert (v_gr == 0).all()
        assert v_gr.shape == (2 * TINY["d_head"] + TINY["d_body"] + 11,)


class TestGradients:
    def test_full_decoder_matches_finite_differences(self, monkeypatch):
        ccfg = corpus_config(monkeypatch, n_pairs=4, n_characters=4, D_HEAD=5, D_BODY=4,
                             D_GLOBAL=7, SIGMA=0.2, COREF_FRACTION=0.7,
                             two_mention_fraction=0.5)
        corpus = generate_corpus(ccfg, seed=2)
        norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks])
        cfg = tiny_decoder_cfg()
        pair = corpus.pairs[1]
        item = build_train_items(corpus, planted(corpus), norm)[1]
        feats, targets = item.feats, item.alpha_targets
        params = init_decoder_params(cfg, len(corpus.vocab), **TINY, seed=0)

        def loss_fn(p):
            t, _, _, grads, _ = pair_loss(p, corpus.vocab, feats,
                                          pair.cur.sentence, targets)
            return t, grads

        assert finite_diff_check(loss_fn, params, max_coords_per_array=6) <= 1e-4


class TestSentenceLoss:
    def _setup(self, seed=0):
        vocab = Vocabulary.build(["walks", "street"])
        cfg = tiny_decoder_cfg()
        params = init_decoder_params(cfg, len(vocab), **TINY, seed=seed)
        rng = rng_stream(seed, "loss")
        return vocab, cfg, params, rng

    def test_no_person_tokens_no_attention_loss(self):
        vocab, cfg, params, rng = self._setup()
        feats = rand_feats(rng, C=3, P=1)
        _, _, att, _, _ = pair_loss(params, vocab, feats,
                                    ["walks", "street"],
                                    {0: (0, 1), 1: (0, 1)})
        assert att == 0.0

    def test_one_hot_attention_gives_zero_loss(self):
        # a single real cell makes alpha exactly one-hot: -log 1 = 0
        vocab, cfg, params, rng = self._setup(1)
        feats = rand_feats(rng, C=1, P=0)
        _, _, att, _, _ = pair_loss(params, vocab, feats,
                                    ["MaleName", "walks"], {0: (0, 1)})
        assert att == 0.0

    def test_target_at_padding_is_skipped_and_counted(self):
        vocab, cfg, params, rng = self._setup(2)
        feats = rand_feats(rng, C=2, P=1)
        tot, word, att, _, skipped = pair_loss(
            params, vocab, feats, ["MaleName", "walks"], {0: (1, 7)})
        assert skipped == 1
        assert att == 0.0

    def test_target_off_a_person_word_is_skipped_and_counted(self):
        # a verb, the end-of-sentence step and a step past it
        vocab, cfg, params, rng = self._setup(4)
        feats = rand_feats(rng, C=2, P=1)
        _, _, att, _, skipped = pair_loss(params, vocab, feats,
                                          ["FemaleCoref", "walks", "street"],
                                          {1: (0, 1), 3: (0, 1), 9: (0, 1)})
        assert skipped == 3
        assert att == 0.0

    def test_target_on_a_pair_without_a_grid_is_skipped_and_counted(self):
        vocab, cfg, params, rng = self._setup(6)
        feats = rand_feats(rng, C=0, P=0)
        sentence, targets = ["MaleName", "walks"], {0: (0, 1)}
        _, _, att, grads, skipped = pair_loss(params, vocab, feats, sentence, targets)
        assert skipped == 1 and att == 0.0
        for k in ("W_id", "W_head", "W_body", "W_stat", "b_v", "W_h", "b_h", "w_att"):
            assert (grads[k] == 0.0).all(), k

        def loss_fn(p):
            t, _, _, grads, _ = pair_loss(p, vocab, feats, sentence, targets)
            return t, grads

        assert finite_diff_check(loss_fn, params, max_coords_per_array=6) <= 1e-4

    def test_unlikely_target_word_gives_finite_loss(self):
        # the target word's probability underflows to 0, its loss does not
        vocab, cfg, params, rng = self._setup(3)
        feats = rand_feats(rng, C=2, P=1)
        params["b_pred"][vocab.index("walks")] = -800.0
        tot, word, _, grads, _ = pair_loss(params, vocab, feats, ["walks"])
        assert np.isfinite(tot) and word > 790.0
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_underflowed_target_cell_is_supervised(self):
        # a valid target cell whose attention underflows to exactly 0 is
        # the worst-predicted target, not a skipped one
        vocab, cfg, params, rng = self._setup(4)
        feats = rand_feats(rng, C=3, P=2)
        params["b_h"][:] = 5.0
        params["w_att"] *= 2000.0
        alpha, _, cache = attention_step(params, np.zeros(cfg.hidden), feats)
        p, c = np.argwhere(alpha == 0.0)[0]
        logits = cache[-1]
        expected = np.log(np.exp(logits - logits.max()).sum()) - (logits[p, c] - logits.max())
        _, _, att, grads, skipped = pair_loss(
            params, vocab, feats, ["MaleName", "walks"], {0: (p, c + 1)})
        assert skipped == 0
        assert att > 700.0 and abs(att - expected) <= 1e-9 * expected
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_passed_dict_accumulates_both_sentences(self):
        vocab, cfg, params, rng = self._setup(5)
        runs = [(rand_feats(rng, C=3, P=2), ["MaleName", "walks", "FemaleCoref"],
                 {0: (1, 2), 2: (0, 3)}),
                (rand_feats(rng, C=2, P=1), ["FemaleName", "street"], {0: (1, 1)})]
        fresh = [pair_loss(params, vocab, *r)[3] for r in runs]
        shared = {k: np.zeros_like(v) for k, v in params.items()}
        for feats, sentence, targets in runs:
            item = TrainItem(0, feats, sentence, targets)
            assert sentence_loss(params, vocab, [item], shared)[3] is shared
        for k in params:
            np.testing.assert_allclose(shared[k], fresh[0][k] + fresh[1][k],
                                       rtol=0, atol=1e-12)

    def test_hand_computed_fixture(self):
        """Independent plain-loop forward oracle for a 2-track, 1-prev,
        3-word sentence."""
        vocab = Vocabulary.build(["walks", "street"])
        cfg = DecoderConfig(d_att=2, d_emb=2, hidden=2)
        widths = dict(d_head=2, d_body=1, d_stat=11, d_global=2)
        rng = rng_stream(7, "fixture")
        params = init_decoder_params(cfg, len(vocab), **widths, seed=7)
        feats = rand_feats(rng, C=2, P=1, widths=widths)
        sentence = ["MaleName", "walks", "street"]
        targets = {0: (1, 2)}
        total, word, att, _, _ = pair_loss(params, vocab, feats,
                                           sentence, targets)

        # ---- oracle: direct loops over the published equations ----
        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        tokens = [vocab.index(t) for t in [BOS] + sentence + [EOS]]
        Vh, Vb, Vs, Hp = (feats.cur_head, feats.cur_body, feats.cur_stat,
                          feats.prev_head)
        h = np.zeros(2)
        c = np.zeros(2)
        o_word = 0.0
        o_att = 0.0
        H = cfg.hidden
        for step in range(1, len(tokens)):
            logits = np.full((2, 2), np.nan)
            cells = {}
            for p in range(2):
                for cc in range(2):
                    vid = (np.full(2, -1.0) if p == 0 else Hp[p - 1] * Vh[cc])
                    fvis = (params["W_head"] @ Vh[cc] + params["W_body"] @ Vb[cc]
                            + params["W_stat"] @ Vs[cc] + params["W_id"] @ vid
                            + params["b_v"])
                    q = np.tanh(params["W_h"] @ h + params["b_h"])
                    logits[p, cc] = params["w_att"] @ (q * np.tanh(fvis))
                    cells[(p, cc)] = np.concatenate([Vh[cc], Vb[cc], Vs[cc], vid])
            e = np.exp(logits - logits.max())
            alpha = e / e.sum()
            v_gr = sum(alpha[p, cc] * cells[(p, cc)]
                       for p in range(2) for cc in range(2))
            if tokens[step - 1 + 1] == vocab.index("MaleName") and (step - 1) in targets:
                tp, tc = targets[step - 1]
                o_att += -np.log(alpha[tp, tc - 1])
            x = np.concatenate([v_gr, feats.v_global, params["E"][tokens[step - 1]]])
            a = params["W_lstm"] @ np.concatenate([x, h]) + params["b_lstm"]
            i, f, o, g = sig(a[:H]), sig(a[H:2 * H]), sig(a[2 * H:3 * H]), np.tanh(a[3 * H:])
            c = f * c + i * g
            h = o * np.tanh(c)
            wp = np.exp(params["W_pred"] @ h + params["b_pred"])
            wp = wp / wp.sum()
            o_word += -np.log(wp[tokens[step]])

        assert abs(word - o_word) < 1e-10
        assert abs(att - o_att) < 1e-10
        assert abs(total - (o_word + o_att)) < 1e-10


class TestTraining:
    def test_same_seed_identical_params(self, monkeypatch):
        ccfg = corpus_config(monkeypatch, n_pairs=10, n_characters=4, D_HEAD=8, D_BODY=6,
                             D_GLOBAL=8, SIGMA=0.1)
        corpus = generate_corpus(ccfg, seed=3)
        monkeypatch.setattr(decoder, "BATCH_SIZE", 4)
        cfg = DecoderConfig(d_att=8, d_emb=8, hidden=12, epochs=3)
        sup = planted(corpus)
        a = train_decoder(corpus, sup, cfg, seed=9)
        b = train_decoder(corpus, sup, cfg, seed=9)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_trained_params_are_views_into_one_vector(self, monkeypatch):
        corpus = generate_corpus(corpus_config(monkeypatch, n_pairs=4, D_HEAD=8, D_BODY=6,
                                               D_GLOBAL=8), seed=3)
        cfg = DecoderConfig(d_att=8, d_emb=8, hidden=12, epochs=1)
        params = train_decoder(corpus, planted(corpus), cfg, seed=9).params
        flat = params["E"].base
        assert flat.ndim == 1 and flat.size == sum(v.size for v in params.values())
        assert all(v.base is flat and np.shares_memory(v, flat) for v in params.values())

    def test_loss_drops_ninety_percent_on_small_corpus(self, monkeypatch):
        ccfg = corpus_config(monkeypatch, n_pairs=50, n_characters=4, D_HEAD=12, D_BODY=6,
                             D_GLOBAL=10)
        corpus = generate_corpus(ccfg, seed=13)
        monkeypatch.setattr(decoder, "LR", 0.005)
        cfg = DecoderConfig(d_att=24, d_emb=12, hidden=32, epochs=30)
        trained = train_decoder(corpus, planted(corpus), cfg, seed=1)
        first = trained.history[0][0]
        last = trained.history[-1][0]
        assert last <= 0.1 * first

    def test_divergence_aborts_with_last_good_params(self, monkeypatch):
        ccfg = corpus_config(monkeypatch, n_pairs=6, n_characters=4, D_HEAD=8, D_BODY=6,
                             D_GLOBAL=8)
        corpus = generate_corpus(ccfg, seed=2)
        corpus.pairs[3].cur.v_global[0] = np.inf
        for name, value in (("LR", 0.01), ("BATCH_SIZE", 3), ("GRAD_CLIP", 0.0)):
            monkeypatch.setattr(decoder, name, value)
        cfg = DecoderConfig(d_att=8, d_emb=8, hidden=12, epochs=3)
        with pytest.raises(TrainingDiverged) as exc:
            train_decoder(corpus, planted(corpus), cfg, seed=1)
        assert all(np.all(np.isfinite(v)) for v in exc.value.params.values())
        # a copy taken before the first epoch: that epoch's steps left it alone
        init = init_decoder_params(cfg, len(corpus.vocab), d_head=8, d_body=6, d_stat=11,
                                   d_global=8, seed=1)
        assert exc.value.epoch == 0
        assert all(exc.value.params[k].tobytes() == v.tobytes() for k, v in init.items())

    @pytest.mark.parametrize("field, dim, width", [
        ("v_head", "d_head", 8), ("v_body", "d_body", 6), ("v_global", "d_global", 10)])
    def test_corpus_width_must_match_config(self, monkeypatch, field, dim, width):
        # the corpus widths are the data's; one vector one wider is named: a
        # track's block against the first track's, a clip's v_global against
        # the first clip's
        corpus = generate_corpus(corpus_config(monkeypatch, n_pairs=4, D_HEAD=8, D_BODY=6,
                                               D_GLOBAL=10), seed=1)
        assert corpus.meta[dim] == width
        clip = corpus.pairs[2].cur
        owner = clip if field == "v_global" else clip.tracks[-1]
        setattr(owner, field, np.append(getattr(owner, field), 0.0))
        stage, kind = ("train_decoder", "clip") if owner is clip else ("fit_norm_stats", "track")
        with pytest.raises(ValueError, match=f"{stage}: {kind} {owner.id} has a {width + 1}-wide "
                                             f"{field}, the first {kind}'s is {width} wide"):
            train_decoder(corpus, planted(corpus), DecoderConfig(epochs=1))

    def test_without_attention_supervision_only_words_are_learned(self, monkeypatch):
        ccfg = corpus_config(monkeypatch, n_pairs=10, n_characters=4, D_HEAD=8, D_BODY=6,
                             D_GLOBAL=8)
        corpus = generate_corpus(ccfg, seed=3)
        sup = planted(corpus)
        monkeypatch.setattr(decoder, "BATCH_SIZE", 4)
        cfg = DecoderConfig(d_att=8, d_emb=8, hidden=12, epochs=5)
        with_att = train_decoder(corpus, sup, cfg, seed=9)
        assert all(att > 0.0 for _, _, att in with_att.history)
        # the words-only arm: the same pairs and groundings, no links
        words_only = train_decoder(
            corpus, [dataclasses.replace(s, links=[]) for s in sup], cfg, seed=9)
        assert all(att == 0.0 for _, _, att in words_only.history)
        assert words_only.history[-1][1] < words_only.history[0][1]


class TestDecode:
    def test_empty_previous_grounding_forces_null(self, separable):
        trained, train, test = separable
        for pair in test.pairs[:10]:
            dec = decode_pair(trained, pair, [])
            for pr in dec.predictions:
                assert pr.p_track == 0

    def test_reappearing_character_gets_coref_and_previous_track(self, separable):
        trained, train, test = separable
        hits = checked = 0
        for pair in test.pairs:
            grounding = planted_supervision(pair).prev_grounding
            coref_chars = {m.coref_prev for m in pair.cur.mentions
                           if m.coref_prev is not None}
            if not coref_chars or len(pair.cur.mentions) != 1:
                continue
            m = pair.cur.mentions[0]
            if m.coref_prev is None:
                continue
            want_prev = dict((ch, tid) for tid, ch, _ in grounding).get(m.coref_prev)
            dec = decode_pair(trained, pair, grounding)
            for pr in dec.predictions:
                checked += 1
                if pr.word.endswith("Coref") and pr.p_track == want_prev:
                    hits += 1
        assert checked > 0
        assert hits / checked >= 0.8

    def test_zero_track_clip_still_generates(self, separable):
        trained, train, test = separable
        import copy
        pair = copy.deepcopy(test.pairs[0])
        pair.cur.tracks = []
        pair.cur.mentions = []
        dec = decode_pair(trained, pair, [])
        assert isinstance(dec.tokens, list)
        assert dec.predictions == []

    def test_equals_a_plain_greedy_loop_over_the_whole_lstm(self, separable):
        # decode_pair splits W_lstm; the oracle multiplies it whole
        trained, _, test = separable
        params, cfg, vocab = trained.params, trained.config, trained.vocab
        eos = vocab.index(EOS)
        for pair in test.pairs[:12]:
            for grounding in (planted_supervision(pair).prev_grounding, []):
                feats = pair_features(pair, grounding, trained.norm, cfg)
                h, c = np.zeros(cfg.hidden), np.zeros(cfg.hidden)
                w = vocab.index(BOS)
                tokens, cells, alphas = [], [], []
                for _ in range(decoder.MAX_LEN):
                    alpha, v_gr, _ = attention_step(params, h, feats)
                    x = np.concatenate([v_gr, feats.v_global, params["E"][w]])
                    h, c, _ = lstm_step_forward(params["W_lstm"], params["b_lstm"], x, h, c)
                    w = int(np.argmax(params["W_pred"] @ h + params["b_pred"]))
                    if w == eos:
                        break
                    tokens.append(vocab.tokens[w])
                    alphas.append(alpha)
                    if vocab.tokens[w] in PERSON_TOKENS:
                        p, ci = np.unravel_index(int(np.argmax(alpha)), alpha.shape)
                        cells.append((len(tokens) - 1, (int(p), int(ci) + 1)))
                dec = decode_pair(trained, pair, grounding)
                assert dec.tokens == tokens
                assert [(pr.tau, pr.cell) for pr in dec.predictions] == cells
                assert len(dec.alphas) == len(alphas)
                for got, want in zip(dec.alphas, alphas):
                    assert np.abs(got - want).max() <= 1e-12

    def test_respects_max_len(self, separable, monkeypatch):
        trained, train, test = separable
        monkeypatch.setattr(decoder, "MAX_LEN", 2)
        dec = decode_pair(trained, test.pairs[0],
                          planted_supervision(test.pairs[0]).prev_grounding)
        assert len(dec.tokens) <= 2


class TestDecodeWidths:
    @pytest.fixture(scope="class")
    def small(self):
        with pytest.MonkeyPatch.context() as mp:
            corpus = generate_corpus(corpus_config(mp, n_pairs=4, D_HEAD=8, D_BODY=6,
                                                   D_GLOBAL=10), seed=1)
        cfg = DecoderConfig(d_att=8, d_emb=8, hidden=12, epochs=1)
        return train_decoder(corpus, planted(corpus), cfg), corpus.pairs[0]

    def test_track_of_another_head_width_is_named(self, small):
        trained, pair = small
        pair = copy.deepcopy(pair)
        track = pair.cur.tracks[-1]
        track.v_head = np.append(track.v_head, 0.0)
        with pytest.raises(ValueError, match=rf"track {track.id} has a 9-wide v_head, "
                                             "the norm statistics are 8 wide"):
            decode_pair(trained, pair, [])

    def test_global_vector_of_another_width_is_rejected(self, small):
        trained, pair = small
        pair = copy.deepcopy(pair)
        pair.cur.v_global = np.append(pair.cur.v_global, [0.0, 0.0])
        with pytest.raises(ValueError, match=rf"pair {pair.id} has a 12-wide v_global, "
                                             "the decoder's is 10 wide"):
            decode_pair(trained, pair, [])


class TestCheckpoint:
    def test_widths_are_read_off_the_weights(self):
        params = init_decoder_params(tiny_decoder_cfg(), 8, **TINY, seed=0)
        assert decoder._widths(params) == (TINY["d_head"], TINY["d_body"], TINY["d_stat"],
                                           TINY["d_global"])

    def test_roundtrip_bitwise_and_behavioral(self, separable, tmp_path):
        trained, train, test = separable
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, trained)
        back = load_checkpoint(path)
        assert set(back.params) == set(trained.params)
        for k in trained.params:
            np.testing.assert_array_equal(back.params[k], trained.params[k])
        assert back.vocab.tokens == trained.vocab.tokens
        pair = test.pairs[1]
        g = planted_supervision(pair).prev_grounding
        d1 = decode_pair(trained, pair, g)
        d2 = decode_pair(back, pair, g)
        assert d1.tokens == d2.tokens
        assert [p.cell for p in d1.predictions] == [p.cell for p in d2.predictions]

    def test_header_is_json_line(self, separable, tmp_path):
        import json
        trained, _, _ = separable
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, trained)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert sorted(header) == ["config", "d_body", "d_global", "d_head", "d_stat", "magic",
                                  "version", "vocab"]
        assert sorted(header["config"]) == ["d_att", "d_emb", "epochs", "hidden"]

    @pytest.mark.parametrize("damage", ["truncated", "appended", "empty"])
    def test_damaged_file_rejected_by_name(self, separable, tmp_path, damage):
        trained, _, _ = separable
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, trained)
        data = path.read_bytes()
        path.write_bytes({"truncated": data[:-1], "appended": data + bytes(8),
                          "empty": b""}[damage])
        with pytest.raises(ValueError, match="model.ckpt") as exc:
            load_checkpoint(path)
        if damage == "truncated":  # the last array written, the v_stat std, is one byte short
            assert "'v_stat_std'" in str(exc.value)


UNKNOWN = "are not DecoderConfig settings"  # a header's config key that no field has


class TestCheckpointVersion:
    @staticmethod
    def _rewrite_header(path, edit):
        head, rest = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        edit(header)
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + rest)

    def test_header_carries_magic_and_version(self, separable, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert (header["magic"], header["version"]) == ("charcap-decoder", 5)

    @pytest.mark.parametrize("key", ["magic", "version"])
    def test_missing_magic_or_version_rejected_by_name(self, separable, tmp_path, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        self._rewrite_header(path, lambda h: h.pop(key))
        with pytest.raises(ValueError, match=rf"model\.ckpt.*{key}.* None"):
            load_checkpoint(path)

    def test_unknown_version_rejected_by_name(self, separable, tmp_path):
        # version 3 listed the arrays and wrote the norm as JSON
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        self._rewrite_header(path, lambda h: h.update(version=3, arrays=[], norm={}))
        with pytest.raises(ValueError, match=r"model\.ckpt: not a version-5 .*format version 3"):
            load_checkpoint(path)

    def test_version_two_table_with_the_logit_bias_rejected(self, separable, tmp_path):
        # a version-2 config, which stated the widths and the supervision
        # flag, over a format-1 table with the attention logit bias: the
        # stamp rejects it before either is read
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])

        def version_two(header):
            header["config"].update(d_head=16, d_body=8, d_global=header.pop("d_global"),
                                    attention_supervision=True)
            header["arrays"] = [{"name": "b_att", "shape": [1]}]
            header["version"] = 2

        self._rewrite_header(path, version_two)
        with pytest.raises(ValueError, match=r"model\.ckpt: not a version-5 .*format version 2"):
            load_checkpoint(path)

    def test_version_four_header_rejected_by_its_stamp(self, separable, tmp_path):
        # version 4's config also held max_len, lr, batch_size and grad_clip
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        self._rewrite_header(path, lambda h: h.update(version=4, config={
            **h["config"], "max_len": 30, "lr": 0.005, "batch_size": 8, "grad_clip": 5.0}))
        with pytest.raises(ValueError, match=r"model\.ckpt: not a version-5 .*format version 4"):
            load_checkpoint(path)

    def test_unknown_config_keys_rejected_by_name(self, separable, tmp_path):
        # the track caps and the supervision flag left DecoderConfig; old
        # headers still name them
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        self._rewrite_header(path, lambda h: h["config"].update(
            c_max=50, p_max=7, attention_supervision=True))
        with pytest.raises(ValueError, match=r"model\.ckpt.*"
                                             r"\['attention_supervision', 'c_max', 'p_max'\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["d_att", "d_emb", "hidden", "epochs"])
    def test_config_lacking_a_key_rejected_by_name(self, separable, tmp_path, key):
        # not read as the default: a file trained for 25 epochs once loaded as 30
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        self._rewrite_header(path, lambda h: h["config"].pop(key))
        with pytest.raises(ValueError, match=rf"model\.ckpt: checkpoint config lacks \['{key}'\]$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, why", [
        ("max_len", "7", UNKNOWN), ("max_len", 7.0, UNKNOWN),
        ("max_len", True, UNKNOWN), ("hidden", None, "is not an integer"),
        ("max_len", -2, UNKNOWN), ("max_len", 0, UNKNOWN),
        ("batch_size", 0, UNKNOWN), ("epochs", -1, "is out of range"),
        ("d_att", 0, "is out of range"), ("hidden", 0, "is out of range"),
        ("lr", "0.01", UNKNOWN), ("lr", float("nan"), UNKNOWN),
        ("grad_clip", True, UNKNOWN),
        ("lr", 0.0, UNKNOWN), ("grad_clip", -1.0, UNKNOWN),
    ], ids=["max_len-string", "max_len-float", "max_len-bool", "hidden-null",
            "max_len-negative", "max_len-zero", "batch_size-zero", "epochs-negative",
            "d_att-zero", "hidden-zero", "lr-string", "lr-nan", "grad_clip-bool", "lr-zero",
            "grad_clip-negative"])
    def test_bad_config_value_rejected_by_key(self, separable, tmp_path, key, value, why):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        self._rewrite_header(path, lambda h: h["config"].update({key: value}))
        # max_len, batch_size, lr and grad_clip are module constants now: a
        # header that gives one is rejected by the key, whatever its value
        fields = {f.name for f in dataclasses.fields(DecoderConfig)}
        at = rf"DecoderConfig\.{key} = .*" if key in fields else rf"\['{key}'\] "
        with pytest.raises(ValueError, match=rf"model\.ckpt: .*{at}{why}"):
            load_checkpoint(path)

    @staticmethod
    def _overwrite(path, stored, value):
        """Write ``value`` over the first entry of the array whose bytes
        are ``stored``'s, found in the file after the header."""
        data = bytearray(path.read_bytes())
        at = data.index(np.asarray(stored, dtype="<f8").tobytes(), data.index(b"\n"))
        data[at:at + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))

    @pytest.mark.parametrize("blk, part, value, why", [
        ("v_body", "std", 0.0, "has a std that is not > 0"),
        ("v_stat", "std", -1.0, "has a std that is not > 0"),
        ("v_head", "mean", float("nan"), "holds a value that is not finite"),
    ], ids=["body-std-zero", "stat-std-negative", "head-mean-nan"])
    def test_unusable_norm_rejected_by_block(self, separable, tmp_path, blk, part, value, why):
        trained = separable[0]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, trained)
        self._overwrite(path, getattr(trained.norm, part)[blk], value)
        with pytest.raises(ValueError, match=rf"model\.ckpt: .*'{blk}.*{why}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [
        ("E", float("nan")), ("W_stat", float("inf")), ("b_pred", -float("inf"))])
    def test_non_finite_weight_rejected_by_name(self, separable, tmp_path, name, value):
        # a loaded NaN in E would make decode_pair emit <bos> at every step
        trained = separable[0]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, trained)
        self._overwrite(path, trained.params[name], value)
        with pytest.raises(ValueError, match=rf"model\.ckpt: array '{name}' holds a value "
                                             "that is not finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, why", [
        (lambda h: h.pop("d_global"), r"lacks \['d_global'\]"),
        (lambda h: h.update(d_global=-1), "d_global = -1 is not a non-negative integer"),
        (lambda h: h.update(d_global="12"), "d_global = '12' is not a non-negative integer"),
        (lambda h: h.update(d_global=True), "d_global = True is not a non-negative integer"),
        (lambda h: h.update(d_global=13), r"the file ends inside array 'W_pred'"),
    ], ids=["missing", "negative", "string", "bool", "wider-than-the-weights"])
    def test_bad_global_width_rejected(self, separable, tmp_path, edit, why):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        assert json.loads(path.read_bytes().split(b"\n", 1)[0])["d_global"] == 12
        self._rewrite_header(path, edit)
        with pytest.raises(ValueError, match=rf"model\.ckpt: .*{why}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("head", [b'{"magic": "\xff"}', b"[" * 100000 + b"]" * 100000],
                             ids=["not-utf8", "nested-past-the-recursion-limit"])
    def test_undecodable_header_rejected_by_name(self, separable, tmp_path, head):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        path.write_bytes(head + b"\n" + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(ValueError, match=r"model\.ckpt: checkpoint header is not JSON"):
            load_checkpoint(path)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_one_header_value_replaced_gives_named_error_or_loads(self, separable, tmp_path,
                                                                      data):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        head, rest = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        _replace(header, data.draw(st.sampled_from(list(_paths(header))), label="path"),
                 data.draw(JSON_VALUES, label="value"))
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + rest)
        try:
            load_checkpoint(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")

    def test_repeated_vocabulary_token_rejected(self, separable, tmp_path):
        # the same number of tokens, so that the layout still fits the file
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        vocab = list(separable[0].vocab.tokens)
        other = next(t for t in vocab if t not in (BOS, EOS, "walks", *PERSON_TOKENS))
        vocab[vocab.index(other)] = "walks"
        self._rewrite_header(path, lambda h: h.update(vocab=vocab))
        with pytest.raises(ValueError, match=r"model\.ckpt: checkpoint vocabulary repeats "
                                             r"the tokens \['walks'\]"):
            load_checkpoint(path)


def _reference_attention_backward(params, feats, cache, h_prev, dv_grounded,
                                  dlogits_extra, grads):
    """Per-step backward through one attention step, every weight's
    gradient formed at the step (the formula before the per-sentence
    terms); returns dh_prev."""
    M = attention_terms(params, feats).M
    Tf, q, alpha, cell, valid, _ = cache
    u = params["w_att"] * q
    Vh, Vb, Vs = feats.cur_head, feats.cur_body, feats.cur_stat
    dalpha = np.einsum("pcd,d->pc", cell, dv_grounded)
    dlogits = alpha * (dalpha - float((alpha * dalpha).sum()))
    if dlogits_extra is not None:
        dlogits = dlogits + dlogits_extra
    dlogits = np.where(valid, dlogits, 0.0)
    du = np.einsum("pc,pcd->d", dlogits, Tf)
    grads["w_att"] += du * q
    dpre_q = du * params["w_att"] * (1.0 - q * q)
    grads["W_h"] += np.outer(dpre_q, h_prev)
    grads["b_h"] += dpre_q
    dF = dlogits[:, :, None] * u[None, None, :] * (1.0 - Tf * Tf)
    grads["b_v"] += dF.sum(axis=(0, 1))
    grads["W_id"] += np.einsum("pck,pcd->kd", dF, M)
    df_cur = dF.sum(axis=0)
    grads["W_head"] += df_cur.T @ Vh
    grads["W_body"] += df_cur.T @ Vb
    grads["W_stat"] += df_cur.T @ Vs
    return params["W_h"].T @ dpre_q


def _reference_sentence_grads(params, cfg, vocab, feats, sentence, targets):
    """Teacher-forced gradients of one sentence, one outer product per step."""
    tokens = [vocab.index(t) for t in [BOS] + sentence + [EOS]]
    person = {vocab.index(t) for t in PERSON_TOKENS}
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    h = np.zeros(cfg.hidden)
    c = np.zeros(cfg.hidden)
    steps = []
    for step in range(1, len(tokens)):
        h_prev = h
        alpha, v_gr, att_cache = attention_step(params, h_prev, feats)
        x = np.concatenate([v_gr, feats.v_global, params["E"][tokens[step - 1]]])
        h, c, lstm_cache = lstm_step_forward(params["W_lstm"], params["b_lstm"], x, h, c)
        dlog = softmax(params["W_pred"] @ h + params["b_pred"])
        dlog[tokens[step]] -= 1.0
        extra = None
        if tokens[step] in person and step - 1 in targets:
            p, ci = targets[step - 1]
            extra = alpha.copy()
            extra[p, ci - 1] -= 1.0
        steps.append((att_cache, lstm_cache, extra, dlog, h_prev, h))
    dh = np.zeros(cfg.hidden)
    dc = np.zeros(cfg.hidden)
    d_gr = sum(v.shape[-1] for v in (feats.cur_head, feats.cur_body, feats.cur_stat,
                                      feats.prev_head))
    for t in range(len(steps) - 1, -1, -1):
        att_cache, lstm_cache, extra, dlog, h_prev, h_t = steps[t]
        grads["W_pred"] += np.outer(dlog, h_t)
        grads["b_pred"] += dlog
        da, dx, dh_prev, dc = lstm_step_backward(lstm_cache, dh + params["W_pred"].T @ dlog, dc)
        grads["W_lstm"] += np.outer(da, lstm_cache[1])
        grads["b_lstm"] += da
        grads["E"][tokens[t]] += dx[d_gr + len(feats.v_global):]
        dh = dh_prev + _reference_attention_backward(params, feats, att_cache, h_prev,
                                                     dx[:d_gr], extra, grads)
    return grads


class TestAttentionTerms:
    def test_passed_terms_give_the_bitwise_same_step(self):
        cfg = tiny_decoder_cfg()
        rng = rng_stream(11, "terms")
        for C, P, c_slots, p_slots in [(1, 0, None, None), (4, 2, None, None), (3, 2, 6, 4)]:
            params = init_decoder_params(cfg, 8, **TINY, seed=C)
            feats = rand_feats(rng, C, P, c_slots=c_slots, p_slots=p_slots)
            terms = attention_terms(params, feats)
            for _ in range(3):
                h = rng.normal(size=cfg.hidden)
                a1, v1, k1 = attention_step(params, h, feats)
                a2, v2, k2 = attention_step(params, h, feats, terms)
                assert a1.tobytes() == a2.tobytes() and v1.tobytes() == v2.tobytes()
                assert len(k1) == len(k2)
                assert all(x.tobytes() == y.tobytes() for x, y in zip(k1, k2))

    def test_sentence_gradients_equal_the_per_step_formula(self):
        # the attention weights' gradients are formed once per sentence; the
        # summation order changes, so equality is to 1e-12 of each array
        vocab = Vocabulary.build(["walks", "street"])
        cfg = tiny_decoder_cfg()
        params = init_decoder_params(cfg, len(vocab), **TINY, seed=12)
        rng = rng_stream(12, "per-sentence")
        runs = [(rand_feats(rng, C=3, P=2, c_slots=5, p_slots=3),
                 ["MaleName", "walks", "FemaleCoref"], {0: (1, 2), 2: (0, 3)}),
                (rand_feats(rng, C=2, P=1),
                 ["FemaleName", "street", "MaleName"], {0: (1, 1), 2: (0, 2)})]
        got = {k: np.zeros_like(v) for k, v in params.items()}
        want = {k: np.zeros_like(v) for k, v in params.items()}
        for feats, sentence, targets in runs:
            sentence_loss(params, vocab, [TrainItem(0, feats, sentence, targets)], got)
            for k, g in _reference_sentence_grads(params, cfg, vocab, feats,
                                                  sentence, targets).items():
                want[k] += g
        for k in params:
            assert np.abs(got[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max(), k


def mixed_batch(cfg, rng):
    """Sentences of 1 to 4 words over a pair with its own padding slots, a
    pair with no previous track, a clip without tracks and a pair with one
    target past its grid; returns the items and, per item, its targets
    without the skipped one."""
    items = [
        TrainItem(0, rand_feats(rng, C=3, P=2, c_slots=5, p_slots=4),
                  ["MaleName"], {0: (2, 3)}),
        TrainItem(1, rand_feats(rng, C=2, P=0), ["FemaleName", "walks"], {0: (0, 2)}),
        TrainItem(2, rand_feats(rng, C=0, P=0), ["street", "walks", "street"], {}),
        TrainItem(3, rand_feats(rng, C=4, P=1),
                  ["street", "MaleName", "walks", "MaleCoref"], {1: (0, 3), 3: (1, 9)}),
    ]
    return items, [item.alpha_targets for item in items[:3]] + [{1: (0, 3)}]


class TestBatchGradients:
    def test_batch_equals_the_per_step_formula_summed(self):
        # one recurrence and one product per weight per mini-batch instead
        # of one outer product per step: the summation order changes, so
        # equality is to 1e-12 of each array
        vocab = Vocabulary.build(["walks", "street"])
        cfg = tiny_decoder_cfg()
        params = init_decoder_params(cfg, len(vocab), **TINY, seed=14)
        rng = rng_stream(14, "per-batch")
        three = [
            TrainItem(0, rand_feats(rng, C=3, P=2, c_slots=5, p_slots=4),
                      ["MaleName", "walks", "FemaleCoref"], {0: (1, 2), 2: (0, 3)}),
            TrainItem(1, rand_feats(rng, C=2, P=0),  # null-only previous slot
                      ["FemaleName", "street"], {0: (0, 2)}),
            TrainItem(2, rand_feats(rng, C=4, P=1),
                      ["street", "MaleName", "walks", "MaleCoref"], {1: (0, 3), 3: (1, 3)}),
        ]
        # targets of two items at one step, of one item at two steps, and
        # one on a cell of the batch's grid that its item lacks
        same_step = [
            TrainItem(0, rand_feats(rng, C=3, P=1),
                      ["MaleName", "walks", "FemaleCoref"], {0: (1, 3), 2: (0, 2)}),
            TrainItem(1, rand_feats(rng, C=2, P=2),
                      ["FemaleName", "MaleCoref"], {0: (2, 1), 1: (0, 3)}),
        ]
        for items, kept, n_skipped in [(three, [item.alpha_targets for item in three], 0),
                                       (*mixed_batch(cfg, rng), 1),
                                       (same_step, [{0: (1, 3), 2: (0, 2)}, {0: (2, 1)}], 1)]:
            total, word, att, grads, skipped = sentence_loss(params, vocab, items,
                                                             zeros_like_params(params))
            want = zeros_like_params(params)
            alone_skipped = 0
            for b, item in enumerate(items):
                for k, g in _reference_sentence_grads(params, cfg, vocab, item.feats,
                                                      item.sentence, kept[b]).items():
                    want[k] += g
                # a batch runs its LSTM and attention products as gemm, a batch
                # of one as gemv: the rounding can differ (by 1.1e-16 relative)
                alone = pair_loss(params, vocab, item.feats, item.sentence,
                                  item.alpha_targets)
                np.testing.assert_allclose((total[b], word[b], att[b]), alone[:3],
                                           rtol=1e-12, atol=0)
                alone_skipped += alone[4]
            assert skipped == alone_skipped == n_skipped
            for k in params:
                assert np.abs(grads[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max(), k


def with_batch_axis(feats):
    """``feats`` as a batch of one: every array gets a leading axis."""
    return dataclasses.replace(feats, **{
        f.name: getattr(feats, f.name)[None] for f in dataclasses.fields(feats)
        if isinstance(getattr(feats, f.name), np.ndarray)})


class TestBatchedRecurrence:
    def test_permuted_batch_permutes_the_losses(self):
        vocab = Vocabulary.build(["walks", "street"])
        cfg = tiny_decoder_cfg()
        params = init_decoder_params(cfg, len(vocab), **TINY, seed=16)
        items, _ = mixed_batch(cfg, rng_stream(16, "batched"))
        order = [3, 0, 2, 1]
        total, word, att, grads, skipped = sentence_loss(params, vocab, items,
                                                         zeros_like_params(params))
        p_total, p_word, p_att, p_grads, p_skipped = sentence_loss(
            params, vocab, [items[i] for i in order], zeros_like_params(params))
        assert p_skipped == skipped == 1
        for got, want in ((p_total, total), (p_word, word), (p_att, att)):
            np.testing.assert_allclose(got, [want[i] for i in order], rtol=1e-12, atol=0)
        for k in params:
            assert np.abs(p_grads[k] - grads[k]).max() <= 1e-12 * np.abs(grads[k]).max(), k

    def test_non_finite_word_logit_leaves_the_gradients_untouched(self):
        # one item's NaN input reaches the word logits, not the attention
        # loss: that item's only target is at step 0, before its state is NaN
        # (an inf input saturates the gates and leaves the logits finite)
        vocab = Vocabulary.build(["walks", "street"])
        cfg = tiny_decoder_cfg()
        params = init_decoder_params(cfg, len(vocab), **TINY, seed=18)
        rng = rng_stream(18, "non-finite")
        items, _ = mixed_batch(cfg, rng)
        items[1].feats.v_global[0] = np.nan
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        before = {k: v.copy() for k, v in grads.items()}
        total, word, att, got, skipped = sentence_loss(params, vocab, items, grads)
        assert total == word == [np.inf] * len(items)
        assert np.isfinite(att).all() and skipped == 1
        assert got is grads
        assert all(grads[k].tobytes() == before[k].tobytes() for k in params)

    def test_one_row_with_a_batch_axis_is_bitwise_the_pair_call(self):
        cfg = tiny_decoder_cfg()
        rng = rng_stream(17, "batch-axis")
        for C, P, c_slots, p_slots in [(1, 0, None, None), (4, 2, None, None),
                                       (3, 2, 6, 4), (0, 0, None, None)]:
            params = init_decoder_params(cfg, 8, **TINY, seed=C + P)
            feats = rand_feats(rng, C, P, c_slots=c_slots, p_slots=p_slots)
            h = rng.normal(size=cfg.hidden)
            a1, v1, k1 = attention_step(params, h, feats)
            a2, v2, k2 = attention_step(params, h[None], with_batch_axis(feats))
            assert a1.tobytes() == a2[0].tobytes() and v1.tobytes() == v2[0].tobytes()
            assert all(x.tobytes() == y[0].tobytes() for x, y in zip(k1, k2))


class TestTrainingCounts:
    DIMS = dict(d_att=8, d_emb=8, hidden=12, epochs=3)

    @staticmethod
    def _corpus(mp):
        corpus = generate_corpus(corpus_config(mp, n_pairs=6, n_characters=4, D_HEAD=8,
                                               D_BODY=6, D_GLOBAL=8, SIGMA=0.1), seed=4)
        mp.setattr(decoder, "BATCH_SIZE", 4)
        assert len(corpus.pairs) == 6  # two batches of at most 4 per epoch
        return corpus

    def test_skipped_targets_are_totalled_over_epochs(self, monkeypatch):
        corpus = self._corpus(monkeypatch)
        sup = planted(corpus)
        assert train_decoder(corpus, sup, DecoderConfig(**self.DIMS), seed=1).skipped_targets == 0
        m, tid = sup[0].links[0]
        assert corpus.pairs[0].cur.sentence[1] not in PERSON_TOKENS
        sup[0].links[0] = (dataclasses.replace(m, pos=1), tid)  # on the verb
        trained = train_decoder(corpus, sup, DecoderConfig(**self.DIMS), seed=1)
        assert trained.skipped_targets == 3  # once per epoch

    @pytest.mark.parametrize("grad_clip, clipped", [(1e-6, 6), (1e6, 0), (0.0, 0)])
    def test_clipped_batches_are_counted(self, monkeypatch, grad_clip, clipped):
        corpus = self._corpus(monkeypatch)
        monkeypatch.setattr(decoder, "GRAD_CLIP", grad_clip)
        trained = train_decoder(corpus, planted(corpus), DecoderConfig(**self.DIMS), seed=1)
        assert trained.clipped_batches == clipped

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("epochs, batch_size, grad_clip", [
        (0, 3, 5.0), (2, 3, 1e-6), (2, 4, 1e6), (2, 4, 0.0)])
    def test_matches_its_own_loop_bitwise(self, monkeypatch, seed, epochs, batch_size, grad_clip):
        corpus = self._corpus(monkeypatch)
        sup = planted(corpus)
        m, tid = sup[0].links[0]
        sup[0].links[0] = (dataclasses.replace(m, pos=1), tid)  # skipped, on the verb
        monkeypatch.setattr(decoder, "BATCH_SIZE", batch_size)
        monkeypatch.setattr(decoder, "GRAD_CLIP", grad_clip)
        cfg = DecoderConfig(**{**self.DIMS, "epochs": epochs})
        got = train_decoder(corpus, sup, cfg, seed=seed)
        want = references.train_decoder(corpus, sup, cfg, seed)
        assert list(got.params) == list(want.params)
        assert all(got.params[k].tobytes() == v.tobytes() for k, v in want.params.items())
        assert repr(got.history) == repr(want.history) and len(got.history) == epochs
        assert got.skipped_targets == want.skipped_targets == epochs
        assert got.clipped_batches == want.clipped_batches

    @pytest.mark.parametrize("trainer, field_name, value", [
        (trainer, field_name, value) for trainer in ("decoder", "linker")
        for field_name, value in [("batch_size", 0), ("batch_size", -1), ("lr", 0.0),
                                  ("lr", -0.01), ("lr", float("nan")), ("epochs", -1)]
    ] + [("decoder", "grad_clip", -1.0),
         # settings that trained but could not be loaded, or failed inside numpy
         ("decoder", "max_len", 0), ("decoder", "epochs", True), ("decoder", "d_att", 0),
         ("decoder", "hidden", 0), ("decoder", "batch_size", 2.0),
         # settings that would train a linker unable to tell mentions apart,
         # or fail inside Python
         ("linker", "hidden", 0), ("linker", "scorer_hidden", 0), ("linker", "recon_hidden", 0),
         ("linker", "d_emb", 0), ("linker", "epochs", True), ("linker", "epochs", 2.5),
         ("linker", "batch_size", 2.5), ("linker", "hidden", 2.0)])
    def test_out_of_range_setting_raises_naming_it(self, trainer, field_name, value):
        config = {"decoder": DecoderConfig, "linker": LinkerConfig}[trainer]
        if field_name not in {f.name for f in dataclasses.fields(config)}:
            # a module constant now, which the config rejects by name
            with pytest.raises(TypeError, match=rf"unexpected keyword argument '{field_name}'"):
                config(**{field_name: value})
            return
        # raised when the config is made, so no trainer sees it
        with pytest.raises(ValueError, match=rf"^{config.__name__}\.{field_name} = "
                                             rf"{re.escape(repr(value))} is "):
            config(**{field_name: value})

    @pytest.mark.parametrize("config", [CorpusConfig, LinkerConfig, DecoderConfig])
    def test_a_made_config_cannot_be_changed(self, config):
        made = config()
        for f in dataclasses.fields(made):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, f.name, getattr(made, f.name))

    def test_capped_tracks_are_counted_and_not_saved(self, monkeypatch, tmp_path):
        corpus = self._corpus(monkeypatch)
        cfg = DecoderConfig(**self.DIMS)
        assert train_decoder(corpus, planted(corpus), cfg, seed=1).capped_tracks == 0
        cur = corpus.pairs[2].cur
        next_id = 1 + max(t.id for clip in corpus.clips for t in clip.tracks)
        cur.tracks = cur.tracks + [dataclasses.replace(cur.tracks[0], id=next_id + i)
                                   for i in range(C_MAX + 3 - len(cur.tracks))]
        trained = train_decoder(corpus, planted(corpus), cfg, seed=1)
        assert trained.capped_tracks == 3
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, trained)
        assert b"capped_tracks" not in path.read_bytes().split(b"\n", 1)[0]
        assert load_checkpoint(path).capped_tracks == 0


# values of each DecoderConfig field, in range and not (wrong type or out of range)
IN_RANGE = dict(d_att=[1, 3], d_emb=[0, 2], hidden=[1, 4], epochs=[0, 1, 2])
ODD = dict(d_att=[0, -1, 2.0, True], d_emb=[-1, 1.0, False], hidden=[0, None, True],
           epochs=[-1, True, 1.0])


class TestCheckpointRoundTrip:
    @pytest.fixture(scope="class")
    def tiny(self):
        with pytest.MonkeyPatch.context() as mp:
            return generate_corpus(corpus_config(mp, n_pairs=3, n_characters=3, D_HEAD=3,
                                                 D_BODY=2, D_GLOBAL=7), seed=5)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=st.builds(DecoderConfig, **{k: st.sampled_from(v) for k, v in IN_RANGE.items()}),
           odd=st.none() | st.sampled_from([(k, v) for k, vs in ODD.items() for v in vs]))
    def test_every_config_that_trains_also_loads(self, tiny, tmp_path, config, odd):
        if odd is not None:  # one field of the wrong type or out of range: no such config
            with pytest.raises(ValueError, match=rf"^DecoderConfig\.{odd[0]} = "):
                dataclasses.replace(config, **dict([odd]))
            return
        trained = train_decoder(tiny, planted(tiny), config, seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, trained)
        back = load_checkpoint(path)
        assert back.config == config
        assert sorted(back.params) == sorted(trained.params)
        assert all(back.params[k].tobytes() == v.tobytes() for k, v in trained.params.items())


    def test_ten_wide_stat_trains_decodes_and_round_trips(self, tiny, tmp_path):
        # the v_stat width is the data's, as the other widths are
        corpus = copy.deepcopy(tiny)
        for clip in corpus.clips:
            for t in clip.tracks:
                t.v_stat = t.v_stat[:10]
        trained = train_decoder(corpus, planted(corpus), DecoderConfig(epochs=2), seed=2)
        assert trained.params["W_stat"].shape[1] == 10
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, trained)
        back = load_checkpoint(path)
        assert all(back.params[k].tobytes() == v.tobytes() for k, v in trained.params.items())
        assert all(getattr(back.norm, part)[blk].tobytes() == v.tobytes()
                   for part in ("mean", "std") for blk, v in getattr(trained.norm, part).items())
        pair = corpus.pairs[1]
        grounding = planted_supervision(pair).prev_grounding
        d1, d2 = decode_pair(trained, pair, grounding), decode_pair(back, pair, grounding)
        assert (d1.tokens, d1.predictions) == (d2.tokens, d2.predictions)
        assert np.array_equal(d1.alphas, d2.alphas)


class TestCheckpointLayout:
    @pytest.mark.parametrize("key, step", [
        *((k, d) for k in ("d_head", "d_body", "d_stat", "d_global") for d in (1, -1)),
        ("d_att", 1), ("d_emb", 1), ("hidden", 1), ("vocab", 1), ("config", None),
    ], ids=lambda v: v if isinstance(v, str) else {1: "+1", -1: "-1", None: "dropped"}[v])
    def test_header_edit_that_moves_the_layout_rejected(self, separable, tmp_path, key, step):
        # the header alone fixes the vector's layout: an edit that moves it
        # is rejected by name, never read as other weights
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, separable[0])
        head, rest = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        if step is None:
            del header[key]
        elif key == "vocab":
            header["vocab"].append("zebra")
        elif key in header:
            header[key] += step
        else:
            header["config"][key] += step
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + rest)
        with pytest.raises(ValueError, match=r"model\.ckpt: (the file ends inside array '\w+'|"
                                             r"bytes left over|checkpoint header lacks)"):
            load_checkpoint(path)
