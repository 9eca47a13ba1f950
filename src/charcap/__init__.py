"""Character-grounded clip description with visual co-reference.

Library layout:

- ``numerics``: dense kernels, activations, seeded RNG, Adam, gradient checker
- ``corpus``: synthetic clip-pair corpora, JSONL ingestion, and the joint
  attention targets of a grounding (``pair_supervision``)
- ``shots``: shot-boundary detection from histograms and point survival
- ``multicut``: two-level clustering tracker over signed pairwise costs
- ``track_features``: track types, box overlap, statistics, normalization
- ``linker``: semi-supervised mention-to-track linking (linked groundings)
- ``decoder``: joint attention sentence decoder with manual gradients
"""

__version__ = "0.1.0"
