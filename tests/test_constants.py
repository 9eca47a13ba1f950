"""The module constants that hold the fixed hyperparameters are read when a
function runs, not bound when its module is imported (as a default
argument would be), so that a test can set one with ``monkeypatch``."""

from charcap import corpus, decoder, linker
from charcap.corpus import CorpusConfig, generate_corpus, planted_supervision


def small_corpus():
    return generate_corpus(CorpusConfig(n_pairs=3), seed=1)


def test_linker_hidden_sets_the_trained_weights_shapes(monkeypatch):
    data = small_corpus()
    monkeypatch.setattr(linker, "HIDDEN", 5)
    params = linker.train_linker(data, linker.LinkerConfig(epochs=1), seed=0).params
    assert params["W_lstm"].shape == (4 * 5, linker.D_EMB + 5)
    assert params["W_s1"].shape == (linker.SCORER_HIDDEN, 5 + corpus.D_HEAD)


def test_decoder_grad_clip_sets_the_clipped_batches(monkeypatch):
    data = small_corpus()
    sup = [planted_supervision(pair) for pair in data.pairs]
    config = decoder.DecoderConfig(d_att=4, d_emb=4, hidden=4, epochs=2)
    counts = []
    for clip in (1e-9, 1e9):
        monkeypatch.setattr(decoder, "GRAD_CLIP", clip)
        counts.append(decoder.train_decoder(data, sup, config, seed=0).clipped_batches)
    assert counts == [2, 0]  # one batch of 3 pairs an epoch, clipped or not


def test_corpus_d_head_sets_the_head_width(monkeypatch):
    monkeypatch.setattr(corpus, "D_HEAD", 5)
    data = small_corpus()
    assert {len(t.v_head) for clip in data.clips for t in clip.tracks} == {5}
    assert data.meta["d_head"] == 5
