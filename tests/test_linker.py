import dataclasses

import numpy as np
import pytest

from charcap.corpus import CorpusConfig, generate_corpus, planted_supervision
from charcap.decoder import build_train_items
from charcap.linker import (
    Linker, LinkerConfig, build_attention_gt, build_link_instances,
    init_linker_params, linking_accuracy, train_linker,
)
from charcap.linker import (
    LinkInstance, _batch, _batch_loss_and_grads, _padded_instances, _score,
)
from charcap.numerics import (
    TrainingDiverged, lstm_step_backward, lstm_step_forward, pad_rows, rng_stream,
    zeros_like_params,
)
from charcap.track_features import apply_norm, fit_norm_stats
import references
from references import cross_entropy, finite_diff_check, softmax


def corpus_cfg(**kw):
    base = dict(n_pairs=60, n_characters=6, d_head=16, d_body=8, d_global=8,
                sigma=0.0, singleton_fraction=0.2)
    base.update(kw)
    return CorpusConfig(**base)


@pytest.fixture(scope="module")
def trained():
    corpus = generate_corpus(corpus_cfg(n_pairs=110), seed=7)
    train, test = corpus.split(80)
    linker = train_linker(train, LinkerConfig(epochs=50), seed=3)
    return linker, train, test


def linker_loss(params, cfg, instances, names):
    """Mean loss and gradients over fixed instances."""
    grads = zeros_like_params(params)
    batch = _batch(_padded_instances(instances, names), np.arange(len(instances)))
    total = _batch_loss_and_grads(params, cfg, batch, grads)
    for k in grads:
        grads[k] /= len(instances)
    return total / len(instances), grads


def one_mention(params, cfg, gender_row, name_row, features):
    """``_score``'s attention for a single mention over all of ``features``."""
    return _score(params, cfg, [gender_row], [name_row], features[None],
                  np.ones((1, len(features)), dtype=bool))[0][0]


class TestForward:
    def test_single_track_attention_is_one(self):
        cfg = LinkerConfig(d_emb=4, hidden=5, scorer_hidden=4, recon_hidden=4)
        params = init_linker_params(cfg, n_names=3, d_head=6, seed=0)
        att = one_mention(params, cfg, 0, 2, np.ones((1, 6)))
        np.testing.assert_allclose(att, [1.0])

    def test_untrained_distribution_normalized(self):
        cfg = LinkerConfig(d_emb=4, hidden=5, scorer_hidden=4, recon_hidden=4)
        params = init_linker_params(cfg, n_names=3, d_head=6, seed=1)
        rng = rng_stream(2, "feat")
        att = one_mention(params, cfg, 1, 3, rng.normal(size=(7, 6)))
        assert abs(att.sum() - 1.0) <= 1e-9
        assert (att >= 0).all()

    def test_clip_without_tracks_links_nothing(self, trained):
        linker, _, test = trained
        clip = next(c for c in test.clips if c.mentions)
        assert linker.link_clip(dataclasses.replace(clip, tracks=[])) == []


    def test_track_of_another_width_is_named(self, trained):
        linker, _, test = trained
        clip = next(c for c in test.clips if len(c.tracks) > 1 and c.mentions)
        wide = dataclasses.replace(clip.tracks[1], v_head=np.append(clip.tracks[1].v_head, 0.0))
        clip = dataclasses.replace(clip, tracks=[clip.tracks[0], wide] + clip.tracks[2:])
        with pytest.raises(ValueError, match=rf"track {wide.id} has a 17-wide v_head, "
                                             "the norm statistics are 16 wide"):
            linker.link_clip(clip)


class TestGradients:
    def test_matches_finite_differences(self):
        corpus = generate_corpus(corpus_cfg(n_pairs=3, sigma=0.3), seed=1)
        norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks])
        insts = build_link_instances(corpus, norm)[:4]
        cfg = LinkerConfig(d_emb=5, hidden=6, scorer_hidden=5, recon_hidden=5)
        names = {n: k for k, n in enumerate(sorted({i.name_id for i in insts}))}
        params = init_linker_params(cfg, len(names), 16, seed=0)
        err = finite_diff_check(
            lambda p: linker_loss(p, cfg, insts, names), params,
            max_coords_per_array=6)
        assert err <= 1e-4


class TestTraining:
    def test_noiseless_linking_matches_plant(self, trained):
        linker, train, test = trained
        assert linking_accuracy(linker, test) >= 0.99

    def test_shuffled_features_are_chance_level(self, trained):
        linker, train, test = trained
        rng = rng_stream(9, "shuffle")
        hits, n, inv_c = 0, 0, 0.0
        for clip in test.clips:
            c = len(clip.tracks)
            if c < 2:
                continue
            feats = apply_norm(clip.tracks, linker.norm, "v_head")
            for m in clip.mentions:
                if not m.gt_track_ids:
                    continue
                # features no longer describe their tracks: position argmax is
                # right only when the permutation fixes the ground-truth row
                perm = rng.permutation(c)
                g, nrow = linker._rows(m.gender, m.char_id)
                att = one_mention(linker.params, linker.config, g, nrow, feats[perm])
                chosen = clip.tracks[int(np.argmax(att))].id
                hits += chosen in m.gt_track_ids
                n += 1
                inv_c += 1.0 / c
        acc = hits / n
        assert acc < 0.55
        assert abs(acc - inv_c / n) < 0.25

    def test_divergence_aborts_with_last_good_params(self):
        # lr = 1e308 carries the weights to the edge of the float range in one
        # step: the first epoch's loss is finite, the second's is not
        corpus = generate_corpus(CorpusConfig(n_pairs=6, n_characters=4, d_head=8, d_body=6,
                                              d_global=8, sigma=0.05), seed=2)
        with pytest.raises(TrainingDiverged) as exc:
            train_linker(corpus, LinkerConfig(epochs=4, lr=1e308), seed=1)
        after_first = train_linker(corpus, LinkerConfig(epochs=1, lr=1e308), seed=1).params
        assert exc.value.epoch == 1
        assert all(np.isfinite(v).all() for v in exc.value.params.values())
        assert list(exc.value.params) == list(after_first)
        assert all(exc.value.params[k].tobytes() == v.tobytes() for k, v in after_first.items())

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("epochs, batch_size", [(0, 4), (3, 5), (3, 4), (2, 16)])
    def test_matches_its_own_loop_bitwise(self, seed, epochs, batch_size):
        corpus = generate_corpus(corpus_cfg(n_pairs=4, sigma=0.3), seed=3)
        assert sum(len(c.mentions) for c in corpus.clips) == 10  # 5 divides it, 4 does not
        cfg = LinkerConfig(d_emb=5, hidden=6, scorer_hidden=5, recon_hidden=5, epochs=epochs,
                           batch_size=batch_size)
        got = train_linker(corpus, cfg, seed=seed)
        want = references.train_linker(corpus, cfg, seed)
        assert list(got.params) == list(want.params)
        assert all(got.params[k].tobytes() == v.tobytes() for k, v in want.params.items())
        assert repr(got.history) == repr(want.history) and len(got.history) == epochs
        assert got.supervised_instances == want.supervised_instances == 3

    def test_unknown_character_rejected(self, trained):
        linker, _, test = trained
        clip = next(c for c in test.clips if c.tracks and c.mentions)
        unknown = dataclasses.replace(clip.mentions[0], char_id=999_999)
        with pytest.raises(KeyError):
            linker.link_clip(dataclasses.replace(clip, mentions=[unknown]))


def grid_targets(corpus, supervision):
    """The decoder's attention targets (tau -> (p, c)) of each pair."""
    norm = fit_norm_stats([t for clip in corpus.clips for t in clip.tracks])
    items = build_train_items(corpus, supervision, norm)
    return {item.pair_id: item.alpha_targets for item in items}


class TestAttentionGt:
    def test_matches_planted_truth_at_zero_noise(self, trained):
        linker, train, test = trained
        got = grid_targets(test, build_attention_gt(linker, test))
        want = grid_targets(test, [planted_supervision(pair) for pair in test.pairs])
        assert got == want
        assert any(want.values())

    def test_new_character_targets_null(self, trained):
        linker, train, test = trained
        by_id = grid_targets(test, build_attention_gt(linker, test))
        checked = 0
        for pair in test.pairs:
            targets = by_id[pair.id]
            for m in pair.cur.mentions:
                if m.coref_prev is None and m.pos in targets:
                    assert targets[m.pos][0] == 0
                    checked += 1
        assert checked > 0

    def test_reappearing_character_targets_previous_track(self, trained):
        linker, train, test = trained
        sup = build_attention_gt(linker, test)
        by_id = grid_targets(test, sup)
        checked = 0
        for pair, s in zip(test.pairs, sup):
            targets = by_id[pair.id]
            for m in pair.cur.mentions:
                if m.coref_prev is not None and m.pos in targets:
                    p = targets[m.pos][0]
                    assert p >= 1
                    assert s.prev_grounding[p - 1][1] == m.coref_prev
                    checked += 1
        assert checked > 0


def _reference_instance(params, cfg, inst, name_row, name_index, grads):
    """One instance's loss, its gradients added into ``grads``: one mention
    at a time, with the scorer input [m; v] tiled per track."""
    H = cfg.hidden
    g = Linker.GENDER_ROWS[inst.gender]
    W, b, E = params["W_lstm"], params["b_lstm"], params["E_tok"]
    h1, c1, k1 = lstm_step_forward(W, b, E[g], np.zeros(H), np.zeros(H))
    m, _, k2 = lstm_step_forward(W, b, E[name_row], h1, c1)
    V = inst.features
    Z = np.hstack([np.tile(m, (len(V), 1)), V])
    T = np.tanh(Z @ params["W_s1"].T + params["b_s1"])
    s = T @ params["w_s2"]
    att = softmax(s)
    v_att = att @ V
    r = np.tanh(params["W_r"] @ v_att + params["b_r"])
    lg = params["W_g"] @ r + params["b_g"]
    ln = params["W_n"] @ r + params["b_n"]
    loss = cross_entropy(lg, g) + cross_entropy(ln, name_index)
    dg = softmax(lg)
    dg[g] -= 1.0
    dn = softmax(ln)
    dn[name_index] -= 1.0
    grads["W_g"] += np.outer(dg, r)
    grads["b_g"] += dg
    grads["W_n"] += np.outer(dn, r)
    grads["b_n"] += dn
    dr_pre = (params["W_g"].T @ dg + params["W_n"].T @ dn) * (1.0 - r * r)
    grads["W_r"] += np.outer(dr_pre, v_att)
    grads["b_r"] += dr_pre
    datt = V @ (params["W_r"].T @ dr_pre)
    ds = att * (datt - att @ datt)
    grads["w_s2"] += T.T @ ds
    dA = np.outer(ds, params["w_s2"]) * (1.0 - T * T)
    grads["W_s1"] += dA.T @ Z
    grads["b_s1"] += dA.sum(axis=0)
    dm = (dA @ params["W_s1"])[:, :H].sum(axis=0)
    da2, dx2, dh1, dc1 = lstm_step_backward(k2, dm, np.zeros(H))
    da1, dx1, _, _ = lstm_step_backward(k1, dh1, dc1)
    grads["W_lstm"] += np.outer(da1, k1[1]) + np.outer(da2, k2[1])
    grads["b_lstm"] += da1 + da2
    grads["E_tok"][name_row] += dx2
    grads["E_tok"][g] += dx1
    return loss


class TestBatch:
    @staticmethod
    def _batch():
        # C = 1 and C > 1, supervised and not, padded to C = 4
        rng = rng_stream(8, "batch")
        cfg = LinkerConfig(d_emb=5, hidden=6, scorer_hidden=5, recon_hidden=5)
        spec = [("M", 0, 1, True), ("F", 1, 4, False), ("F", 2, 1, False),
                ("M", 1, 3, True), ("M", 2, 2, False)]
        insts = [LinkInstance(gender=g, name_id=n, features=rng.normal(size=(C, 7)),
                              supervised=sup)
                 for g, n, C, sup in spec]
        names = {n: n for n in range(3)}
        return cfg, init_linker_params(cfg, 3, 7, seed=4), insts, names

    def test_batched_loss_and_gradients_equal_per_instance(self):
        # the batch sums in another order: equal to 1e-12 of each array
        cfg, params, insts, names = self._batch()
        loss, grads = linker_loss(params, cfg, insts, names)
        want = {k: np.zeros_like(v) for k, v in params.items()}
        want_loss = sum(_reference_instance(params, cfg, i, 2 + names[i.name_id],
                                            names[i.name_id], want)
                        for i in insts) / len(insts)
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        for k in params:
            want[k] /= len(insts)
            assert np.abs(grads[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max(), k

    def test_supervised_flag_changes_nothing(self):
        # a singleton clip's link is known but adds no loss term
        cfg, params, insts, names = self._batch()
        flipped = [dataclasses.replace(i, supervised=not i.supervised) for i in insts]
        loss, grads = linker_loss(params, cfg, insts, names)
        loss_f, grads_f = linker_loss(params, cfg, flipped, names)
        assert loss == loss_f
        for k in params:
            assert grads[k].tobytes() == grads_f[k].tobytes(), k

    def test_padding_tracks_get_zero_attention(self):
        cfg, params, insts, names = self._batch()
        genders, classes, V, valid = _batch(_padded_instances(insts, names),
                                            np.arange(len(insts)))
        rows = 2 + classes
        att = _score(params, cfg, genders, rows, V, valid)[0]
        assert valid.sum() < valid.size
        assert (att[~valid] == 0.0).all()
        for b, inst in enumerate(insts):
            one = one_mention(params, cfg, genders[b], rows[b], inst.features)
            np.testing.assert_allclose(att[b, :len(one)], one, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("idx", [[2, 0], [4, 2, 3], [1], [3, 0, 4, 1, 2]])
    def test_batch_cut_from_the_padded_instances_is_pad_rows_of_its_features(self, idx):
        # track counts 1, 4, 1, 3, 2: a cut without instance 1 is narrower than the padding
        _, _, insts, names = self._batch()
        genders, classes, V, valid = _batch(_padded_instances(insts, names), np.array(idx))
        want_V, want_valid = pad_rows([insts[i].features for i in idx])
        assert V.shape == want_V.shape and V.tobytes() == want_V.tobytes()
        assert valid.shape == want_valid.shape and valid.tobytes() == want_valid.tobytes()
        assert V.flags.c_contiguous
        assert genders.tolist() == [Linker.GENDER_ROWS[insts[i].gender] for i in idx]
        assert classes.tolist() == [names[insts[i].name_id] for i in idx]


class TestHeads:
    def test_equal_to_apply_norm_bitwise(self):
        corpus = generate_corpus(corpus_cfg(n_pairs=6, sigma=0.3), seed=2)
        norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks[:2]])
        for clip in corpus.clips:
            want = np.stack([(t.v_head - norm.mean["v_head"]) / norm.std["v_head"]
                             for t in clip.tracks])
            got = apply_norm(clip.tracks, norm, "v_head")
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPacked:
    def test_trained_params_are_views_into_one_vector(self, trained):
        params = trained[0].params
        flat = params["E_tok"].base
        assert flat.ndim == 1 and flat.size == sum(v.size for v in params.values())
        assert all(v.base is flat and np.shares_memory(v, flat) for v in params.values())


class TestCounts:
    def test_supervised_instances_are_the_singleton_clip_mentions(self):
        corpus = generate_corpus(corpus_cfg(n_pairs=12), seed=5)
        want = sum(1 for pair in corpus.pairs for clip in (pair.prev, pair.cur)
                   if clip is not None and len(clip.tracks) == 1 and len(clip.mentions) == 1)
        assert want > 0
        linker = train_linker(corpus, LinkerConfig(epochs=1), seed=0)
        assert linker.supervised_instances == want
