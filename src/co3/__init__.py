"""Convert, compress, correct: a gradient codec plus a training simulator.

Three gradient processing steps for communication-efficient distributed
training: conversion to a low-bit floating-point grid with an optimized
exponent bias, lossless Huffman compression driven by a fitted generalized
normal gradient model, and decayed error feedback. A synchronous
parameter-server simulator wires the steps together with bit-exact payload
accounting. The names imported below are the package's public API.
"""

from .datasets import Dataset, load_cifar10_binary, load_csv, load_idx, synth_blobs
from .distmodel import (
    DegenerateSampleError,
    FitReport,
    GenNormParams,
    InsufficientDataError,
    cell_probabilities,
    fit_all,
    fit_gennorm,
    fit_laplace,
    fit_normal,
    gennorm_cdf,
    gennorm_pdf,
    gennorm_ppf,
    w2_distance,
)
from .entropy import (
    CorruptionError,
    EncodedBlock,
    HuffmanCodebook,
    PayloadLedger,
    TruncationError,
    build_codebook,
    decode,
    decode_block,
    encode,
    expected_length,
)
from .feedback import FeedbackState, corrected_input, init_state, norms, replay_memory, update
from .fpq import (
    FP4,
    FpFormat,
    QuantizedTensor,
    bias_objective,
    bias_polynomial,
    count_saturated,
    dequantize,
    enumerate_levels,
    max_level,
    optimize_bias,
    quantize,
)
from .trainer import DivergenceError, Model, RunMetrics, TrainConfig, train

__version__ = "0.1.0"
