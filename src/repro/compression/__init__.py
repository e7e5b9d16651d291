"""Graph compression substrate.

This package implements the compressed graph representation (CGR) of the
paper, together with the byte-RLE compression it compares against (as in
Ligra+).

Layers, bottom-up:

``bitarray``
    The packed-word bit-stream engine: streams as 64-bit words (MSB-first),
    word-level field extraction and unary scans, used by every
    variable-length code.
``vlc``
    Variable-length codes: unary, Elias gamma, Elias delta and zeta_k codes
    (Boldi & Vigna), exactly as described in Appendix B of the paper, plus
    the bulk run decoders (``decode_gamma_run`` et al.) that decode whole
    residual runs per call and closed-form code lengths
    (``VLCScheme.encoded_length``).
``vectorized``
    Whole-graph adjacency decode in numpy SIMD rounds (the paper's parallel
    decode mapped to the CPU); reached through ``CGRGraph.decode_all``.
``reference``
    The seed's list-of-bits implementation and probe-writer segment
    partition, retained as differential baselines for the property suites
    and the codec benchmark.
``gaps``
    Gap transformation and the sign/minimum shifting rules of Appendix C.
``intervals``
    Intervals-and-residuals split of a sorted adjacency list.
``cgr``
    The full CGR encoder/decoder for whole graphs, with optional residual
    segmentation (Section 5.2).
``byte_rle``
    Byte-aligned run-length/gap encoding in the spirit of Ligra+, used by the
    Ligra+ baseline.
"""

from repro.compression.bitarray import BitReader, BitWriter, PackedBits
from repro.compression.vlc import (
    VLC_SCHEMES,
    VLCScheme,
    decode_delta,
    decode_delta_run,
    decode_gamma,
    decode_gamma_run,
    decode_unary,
    decode_zeta,
    decode_zeta_run,
    encode_delta,
    encode_gamma,
    encode_unary,
    encode_zeta,
    get_scheme,
)
from repro.compression.gaps import (
    gap_decode_sequence,
    gap_encode_sequence,
    zigzag_decode,
    zigzag_encode,
)
from repro.compression.intervals import (
    IntervalResidualForm,
    merge_intervals_residuals,
    split_intervals_residuals,
)
from repro.compression.cgr import CGRConfig, CGRGraph, encode_graph
from repro.compression.byte_rle import ByteRLEGraph

__all__ = [
    "BitReader",
    "BitWriter",
    "PackedBits",
    "VLC_SCHEMES",
    "VLCScheme",
    "encode_unary",
    "decode_unary",
    "encode_gamma",
    "decode_gamma",
    "decode_gamma_run",
    "encode_delta",
    "decode_delta",
    "decode_delta_run",
    "encode_zeta",
    "decode_zeta",
    "decode_zeta_run",
    "get_scheme",
    "zigzag_encode",
    "zigzag_decode",
    "gap_encode_sequence",
    "gap_decode_sequence",
    "IntervalResidualForm",
    "split_intervals_residuals",
    "merge_intervals_residuals",
    "CGRConfig",
    "CGRGraph",
    "encode_graph",
    "ByteRLEGraph",
]
