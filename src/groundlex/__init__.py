"""groundlex: a desk-scale laboratory for grounded word learning.

Cleans and deduplicates transcript records, reads precomputed frame features
(GLFX files, `<f8` on disk, held as the models' float32) and pairs each
utterance with its frames. Defines three dual encoders (`cvcl`, `cvcl_t`,
`cvcl_t_lm`) on a small autograd engine, with the symmetric contrastive and
next-word losses, AdamW, and GLCK checkpoints.
`train` holds the training step and the 4-way trial scorer, and the
`groundlex` command (`cli`) trains a model on files and evaluates it.
It runs on POSIX (Linux and macOS): a loaded feature store reads its rows
with `os.pread`, and `groundlex train` reads its memory from `resource`.
numpy is its only dependency beside the standard library. Importing it
changes nothing in the process: `Model.init` fixes glibc's malloc thresholds.
"""

__version__ = "0.1.0"
