"""Character-grounded clip description with visual co-reference.

Library layout:

- ``numerics``: dense kernels, activations, seeded RNG, Adam, the mini-batch loop
- ``corpus``: synthetic clip-pair corpora, JSONL ingestion, and the
  supervision of a grounding (``pair_supervision``)
- ``shots``: shot-boundary detection from histograms and point survival
- ``multicut``: two-level clustering tracker over signed pairwise costs
- ``track_features``: track types, box overlap, statistics, normalization
- ``linker``: mention-to-track linking by reconstruction (linked groundings)
- ``decoder``: joint attention sentence decoder with manual gradients

Every module imports on numpy alone. ``shots`` also needs scipy, for its
``scipy.ndimage`` frame filters, and imports it on first use, when a frame
is first filtered; so linking and decoding, which read no frames, never
load scipy.
"""

__version__ = "0.1.0"
