"""One-row reference functions that the tests check the library's batched
kernels and gradient oracles against."""

import numpy as np


def softmax(logits):
    """Shift-invariant softmax of a nonempty finite 1-D vector: the reference
    for ``cross_entropy``, ``numerics.masked_softmax``,
    ``numerics.softmax_cross_entropy`` and the linker and decoder gradient
    oracles."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax: empty input")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax: non-finite input")
    e = np.exp(z - z.max())
    return e / e.sum()


def cross_entropy(logits, target, valid=None):
    """-log softmax(logits)[target], as log-sum-exp less the target logit.

    Finite whenever the logits are, also where the target's probability
    underflows to 0. With ``valid`` the softmax runs over the valid cells
    only (as ``numerics.masked_softmax``); ``target`` indexes ``logits``.
    The reference for ``numerics.softmax_cross_entropy``'s losses and the
    decoder's attention loss.
    """
    z = np.asarray(logits, dtype=np.float64)
    zt = z[target]
    if valid is not None:
        z = z[np.asarray(valid, dtype=bool)]
    zmax = z.max()
    return float(np.log(np.exp(z - zmax).sum()) - (zt - zmax))
