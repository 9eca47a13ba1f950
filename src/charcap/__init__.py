"""Character-grounded clip description with visual co-reference.

Library layout:

- ``numerics``: dense kernels, activations, seeded RNG, gradient checker
- ``corpus``: synthetic clip-pair corpora and JSONL ingestion
- ``shots``: shot-boundary detection from histograms and point survival
- ``multicut``: two-level clustering tracker over signed pairwise costs
- ``track_features``: body geometry, track statistics, normalization
- ``linker``: semi-supervised mention-to-track linking (attention targets)
- ``decoder``: joint attention sentence decoder with manual gradients
"""

__version__ = "0.1.0"
