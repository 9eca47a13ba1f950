import numpy as np
import pytest

from charcap.corpus import CorpusConfig, generate_corpus, planted_supervision
from charcap.linker import (
    Linker, LinkerConfig, build_attention_gt, build_link_instances,
    init_linker_params, link_scores, linker_loss, linking_accuracy,
    train_linker,
)
from charcap.linker import LinkInstance, _heads, _pad_tracks, _score
from charcap.numerics import (
    cross_entropy, finite_diff_check, lstm_step_backward, lstm_step_forward,
    rng_stream, softmax,
)
from charcap.track_features import apply_norm, fit_norm_stats


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


class TestForward:
    def test_single_track_attention_is_one(self):
        cfg = LinkerConfig(d_emb=4, hidden=5, scorer_hidden=4, recon_hidden=4)
        params = init_linker_params(cfg, n_names=3, d_head=6, seed=0)
        att, _ = link_scores(params, cfg, 0, 2, np.ones((1, 6)))
        np.testing.assert_allclose(att, [1.0])

    def test_untrained_distribution_normalized(self):
        cfg = LinkerConfig(d_emb=4, hidden=5, scorer_hidden=4, recon_hidden=4)
        params = init_linker_params(cfg, n_names=3, d_head=6, seed=1)
        rng = rng_stream(2, "feat")
        att, _ = link_scores(params, cfg, 1, 3, rng.normal(size=(7, 6)))
        assert abs(att.sum() - 1.0) <= 1e-9
        assert (att >= 0).all()

    def test_empty_track_list_rejected(self):
        cfg = LinkerConfig()
        params = init_linker_params(cfg, n_names=2, d_head=4, seed=0)
        with pytest.raises(ValueError):
            link_scores(params, cfg, 0, 2, np.zeros((0, 4)))


class TestGradients:
    def test_matches_finite_differences(self):
        corpus = generate_corpus(corpus_cfg(n_pairs=3, sigma=0.3), seed=1)
        norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks])
        insts = build_link_instances(corpus, norm)[:4]
        cfg = LinkerConfig(d_emb=5, hidden=6, scorer_hidden=5, recon_hidden=5)
        name_ids = sorted({i.name_id for i in insts})
        rows = {n: 2 + k for k, n in enumerate(name_ids)}
        idx = {n: k for k, n in enumerate(name_ids)}
        params = init_linker_params(cfg, len(name_ids), 16, seed=0)
        err = finite_diff_check(
            lambda p: linker_loss(p, cfg, insts, rows, idx), params,
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
        insts = build_link_instances(test, linker.norm)
        for inst in insts:
            c = len(inst.track_ids)
            if c < 2 or not inst.gt_track_ids:
                continue
            # features no longer describe their tracks: position argmax is
            # right only when the permutation fixes the ground-truth row
            perm = rng.permutation(c)
            att = linker.attention(inst.gender, inst.name_id, inst.features[perm])
            chosen = inst.track_ids[int(np.argmax(att))]
            hits += chosen in inst.gt_track_ids
            n += 1
            inv_c += 1.0 / c
        acc = hits / n
        assert acc < 0.55
        assert abs(acc - inv_c / n) < 0.25

    def test_no_singletons_warns(self):
        corpus = generate_corpus(corpus_cfg(n_pairs=8, singleton_fraction=0.0,
                                            max_distractors=2), seed=11)
        # force multi-track clips so no singleton condition holds
        eligible = all(len(c.tracks) > 1 or len(c.mentions) != 1
                       for c in corpus.clips)
        if not eligible:
            for c in corpus.clips:
                if len(c.tracks) == 1:
                    c.tracks = c.tracks * 1  # keep: filtered below
            corpus.pairs = [p for p in corpus.pairs
                            if len(p.prev.tracks) > 1 and len(p.cur.tracks) > 1]
        with pytest.warns(UserWarning, match="unsupervised"):
            train_linker(corpus, LinkerConfig(epochs=1), seed=0)

    def test_unknown_character_rejected(self, trained):
        linker, _, _ = trained
        with pytest.raises(KeyError):
            linker.attention("M", 999_999, np.zeros((2, 16)))


class TestAttentionGt:
    def test_matches_planted_truth_at_zero_noise(self, trained):
        linker, train, test = trained
        sup = build_attention_gt(linker, test)
        by_id = {s.pair_id: s for s in sup}
        for pair in test.pairs:
            want = {t.tau: t for t in planted_supervision(pair).targets}
            got = {t.tau: t for t in by_id[pair.id].targets}
            assert set(got) == set(want)
            for tau in want:
                assert got[tau].c == want[tau].c
                assert got[tau].p == want[tau].p

    def test_new_character_targets_null(self, trained):
        linker, train, test = trained
        sup = build_attention_gt(linker, test)
        by_id = {s.pair_id: s for s in sup}
        checked = 0
        for pair in test.pairs:
            targets = {t.tau: t for t in by_id[pair.id].targets}
            for m in pair.cur.mentions:
                if m.coref_prev is None and m.pos in targets:
                    assert targets[m.pos].p == 0
                    checked += 1
        assert checked > 0

    def test_reappearing_character_targets_previous_track(self, trained):
        linker, train, test = trained
        sup = build_attention_gt(linker, test)
        by_id = {s.pair_id: s for s in sup}
        checked = 0
        for pair in test.pairs:
            s = by_id[pair.id]
            targets = {t.tau: t for t in s.targets}
            for m in pair.cur.mentions:
                if m.coref_prev is not None and m.pos in targets:
                    p = targets[m.pos].p
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
    if inst.supervised:
        loss += cross_entropy(s, 0)
        sup = att.copy()
        sup[0] -= 1.0
        ds += sup
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
                              track_ids=list(range(C)), supervised=sup)
                 for g, n, C, sup in spec]
        rows = {n: 2 + n for n in range(3)}
        idx = {n: n for n in range(3)}
        return cfg, init_linker_params(cfg, 3, 7, seed=4), insts, rows, idx

    def test_batched_loss_and_gradients_equal_per_instance(self):
        # the batch sums in another order: equal to 1e-12 of each array
        cfg, params, insts, rows, idx = self._batch()
        loss, grads = linker_loss(params, cfg, insts, rows, idx)
        want = {k: np.zeros_like(v) for k, v in params.items()}
        want_loss = sum(_reference_instance(params, cfg, i, rows[i.name_id], idx[i.name_id], want)
                        for i in insts) / len(insts)
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        for k in params:
            want[k] /= len(insts)
            assert np.abs(grads[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max(), k

    def test_padding_tracks_get_zero_attention(self):
        cfg, params, insts, rows, _ = self._batch()
        V, valid = _pad_tracks([i.features for i in insts])
        genders = [Linker.GENDER_ROWS[i.gender] for i in insts]
        names = [rows[i.name_id] for i in insts]
        att = _score(params, cfg, genders, names, V, valid)[0]
        assert valid.sum() < valid.size
        assert (att[~valid] == 0.0).all()
        for b, inst in enumerate(insts):
            one, _ = link_scores(params, cfg, genders[b], names[b], inst.features)
            np.testing.assert_allclose(att[b, :len(one)], one, rtol=0, atol=1e-15)


class TestHeads:
    def test_equal_to_apply_norm_bitwise(self):
        corpus = generate_corpus(corpus_cfg(n_pairs=6, sigma=0.3), seed=2)
        norm = fit_norm_stats([t for c in corpus.clips for t in c.tracks[:2]])
        for clip in corpus.clips:
            want = np.stack([apply_norm(t, norm).v_head for t in clip.tracks])
            got = _heads(clip.tracks, norm)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestCounts:
    def test_supervised_instances_are_the_singleton_clip_mentions(self):
        corpus = generate_corpus(corpus_cfg(n_pairs=12), seed=5)
        want = sum(1 for pair in corpus.pairs for clip in (pair.prev, pair.cur)
                   if clip is not None and len(clip.tracks) == 1 and len(clip.mentions) == 1)
        assert want > 0
        linker = train_linker(corpus, LinkerConfig(epochs=1), seed=0)
        assert linker.supervised_instances == want
