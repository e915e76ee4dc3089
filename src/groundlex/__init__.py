"""groundlex: a desk-scale laboratory for grounded word learning.

Cleans and deduplicates transcript records, reads precomputed frame features
(GLFX files) and pairs each utterance with its frames. Defines three dual
encoders (`cvcl`, `cvcl_t`, `cvcl_t_lm`) on a small autograd engine, with the
symmetric contrastive and next-word losses, AdamW, and GLCK checkpoints.
`train` holds the training step and the 4-way trial scorer, and the
`groundlex` command (`cli`) trains a model on files and evaluates it.
"""

__version__ = "0.1.0"
