"""groundlex: a desk-scale laboratory for grounded word learning.

Cleans and deduplicates transcript records, reads precomputed frame features
(GLFX files) and pairs each utterance with its frames. Defines three dual
encoders (`cvcl`, `cvcl_t`, `cvcl_t_lm`) on a small autograd engine, with the
symmetric contrastive and next-word losses, AdamW, and GLCK checkpoints. The
library has no training loop or evaluator yet: the benchmark under `bench/`
assembles a training step and scores 4-way trials from these parts.
"""

__version__ = "0.1.0"
