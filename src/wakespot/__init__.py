"""Query-by-example wakeword detection.

Enroll a custom spoken keyword from a handful of recordings by decoding
N-best label sequences from a CTC label model, then detect it in new audio
by confidence-weighted forward scoring. Each name is imported from the
module that holds its job:

- ``audio``: WAV input and the log-Mel filterbank front end;
- ``vad``: the energy voice activity detector;
- ``label_model``: the GRU label model and its weight files;
- ``ctc``: the forward lattice, which rows enter through
  ``ForwardLattice.advance``, and the prefix beam search;
- ``wakeword``: enrollment, scoring, model files and the streaming detector;
- ``dtw``: the DTW baselines;
- ``evaluation``: few-shot episodes, ROC metrics and the harness;
- ``synth``: the synthetic pseudo-phoneme audio world;
- ``errors`` and ``cli``: the exception types and the ``wakespot`` command.
"""
