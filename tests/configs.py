"""The tests' corpus configs: ``CorpusConfig`` settings and ``corpus``
module constants from one set of keywords."""

from charcap import corpus


def corpus_config(mp, **kw):
    """``CorpusConfig`` of the lower-case keywords. Each upper-case keyword
    (``D_HEAD=8``, ``SIGMA=0.0``) sets the ``corpus`` constant of its name
    through ``mp``, a ``pytest.MonkeyPatch``, until ``mp`` undoes it;
    ``generate_corpus`` reads the constants when it runs."""
    for name in [k for k in kw if k.isupper()]:
        mp.setattr(corpus, name, kw.pop(name))
    return corpus.CorpusConfig(**kw)
