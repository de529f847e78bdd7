"""Unsupervised cross-modal hashing toolkit.

Learns binary codes for paired image/text features without labels by
reconstructing a structurally-smoothed semantic similarity matrix,
pulling adaptively mined correlated pairs together, and refining against
detached sign codes.  Ships a synthetic data generator, a training loop,
a Hamming-ranking evaluation kit, and a CLI front end.

Import the modules themselves (``from assph import trainer``).  The
package re-exports nothing, so importing ``assph.cli`` does not load
numpy before ``--threads`` has capped the BLAS pools.
"""

__version__ = "0.1.0"
