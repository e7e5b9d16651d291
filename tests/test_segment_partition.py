"""The encoder's O(k) residual-segment partition against the seed's oracle.

:func:`repro.compression.cgr._segment_bounds` sizes segments from closed-form
code lengths; :func:`repro.compression.reference.probe_segment_partition` is
the seed's partition, which re-encodes every candidate segment into a probe
writer.  These tests assert equal segment boundaries and bit-identical
streams, offsets and edge counts across every VLC scheme, segment length and
minimum interval length, pin the partition rule's edge cases, and check the
clear error for a residual too wide for its segment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.bitarray import BitWriter
from repro.compression.cgr import CGRConfig, CGRGraph, _segment_bounds
from repro.compression.reference import (
    probe_encode_graph,
    probe_residual_run_bits,
    probe_segment_partition,
)
from repro.compression.vlc import VLC_SCHEMES, VLCError, get_scheme

ALL_SCHEMES = sorted(VLC_SCHEMES)
SEGMENT_BITS = (64, 128, 256, 1024)
MIN_INTERVALS = (2, 4, float("inf"))


def _probe_length(scheme, value: int) -> int:
    writer = BitWriter()
    scheme.encode(writer, value)
    return writer.bit_length


def oracle_bounds(scheme, seg_bits: int, node: int, residuals) -> list[int] | None:
    """The seed partition as boundaries; ``None`` where the seed's writer failed.

    The seed wrote a segment that was too wide and then crashed padding it
    to ``seg_bits``; that happens exactly when a segment other than the last
    is wider than a segment.
    """
    segments = probe_segment_partition(scheme, seg_bits, node, residuals)
    if any(
        probe_residual_run_bits(scheme, node, segment) > seg_bits
        for segment in segments[:-1]
    ):
        return None
    bounds = [0]
    for segment in segments:
        bounds.append(bounds[-1] + len(segment))
    return bounds


def assert_same_partition(scheme_name: str, seg_bits: int, node: int, residuals):
    scheme = get_scheme(scheme_name)
    expected = oracle_bounds(scheme, seg_bits, node, residuals)
    if expected is None:
        with pytest.raises(ValueError, match=f"node {node}: residual"):
            _segment_bounds(scheme, seg_bits, node, residuals)
    else:
        assert _segment_bounds(scheme, seg_bits, node, residuals) == expected
    return expected


def assert_same_stream(adjacency, config: CGRConfig) -> CGRGraph:
    encoded = CGRGraph.from_adjacency(adjacency, config)
    oracle = probe_encode_graph(adjacency, config)
    assert encoded.bits.to_word_bytes() == oracle.bits.to_word_bytes()
    assert encoded.total_bits == oracle.total_bits
    assert encoded.offsets.tolist() == oracle.offsets.tolist()
    assert encoded.num_edges == oracle.num_edges
    return encoded


def hub_graph(seed: int, nodes: int = 40) -> list[list[int]]:
    """Degree-0 nodes, interval runs, local lists and wide-gap hubs."""
    rng = random.Random(seed)
    adjacency = []
    for node in range(nodes):
        shape = node % 4
        if shape == 0:
            adjacency.append([])
        elif shape == 1:
            start = rng.randrange(0, 400)
            run = list(range(start, start + rng.randrange(1, 12)))
            adjacency.append(run + [rng.randrange(0, 400) for _ in range(5)])
        elif shape == 2:
            adjacency.append(
                [rng.randrange(0, 400) for _ in range(rng.randrange(1, 30))]
            )
        else:
            adjacency.append(
                [rng.randrange(0, 1 << 20) for _ in range(rng.randrange(100, 300))]
            )
    return adjacency


# ---------------------------------------------------------------------------
# Closed-form code lengths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_encoded_length_is_the_written_length(scheme_name):
    scheme = get_scheme(scheme_name)
    values = list(range(1, 3000))
    for shift in range(1, 90):
        values.extend([(1 << shift) - 1, 1 << shift, (1 << shift) + 1])
    for value in values:
        assert scheme.encoded_length(value) == _probe_length(scheme, value), value


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_encoded_length_rejects_non_positive_values(scheme_name):
    for bad in (0, -1):
        with pytest.raises(VLCError):
            get_scheme(scheme_name).encoded_length(bad)


# ---------------------------------------------------------------------------
# Differential: partition boundaries and whole streams
# ---------------------------------------------------------------------------

residual_runs = st.tuples(
    st.integers(min_value=0, max_value=5000),
    st.lists(st.integers(min_value=0, max_value=6000), max_size=400).map(
        lambda values: sorted(set(values))
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    residual_runs,
    st.sampled_from(ALL_SCHEMES),
    st.sampled_from(SEGMENT_BITS),
)
def test_property_partition_matches_the_probe_oracle(run, scheme_name, seg_bits):
    node, residuals = run
    assert_same_partition(scheme_name, seg_bits, node, residuals)


def adjacency_with_hubs():
    """Small graphs whose lists range from empty to several segments long."""
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=3000), max_size=250),
            min_size=n,
            max_size=n,
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    adjacency_with_hubs(),
    st.sampled_from(ALL_SCHEMES),
    st.sampled_from(SEGMENT_BITS),
    st.sampled_from(MIN_INTERVALS),
)
def test_property_streams_match_the_probe_oracle(
    adjacency, scheme_name, seg_bits, min_interval
):
    config = CGRConfig(
        vlc_scheme=scheme_name,
        min_interval_length=min_interval,
        residual_segment_bits=seg_bits,
    )
    cleaned = [sorted(set(neighbors)) for neighbors in adjacency]
    encoded = assert_same_stream(cleaned, config)
    for node, neighbors in enumerate(cleaned):
        assert encoded.neighbors(node) == neighbors


@pytest.mark.parametrize("min_interval", MIN_INTERVALS)
@pytest.mark.parametrize("seg_bits", SEGMENT_BITS)
@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_full_matrix_streams_match_the_probe_oracle(
    scheme_name, seg_bits, min_interval
):
    config = CGRConfig(
        vlc_scheme=scheme_name,
        min_interval_length=min_interval,
        residual_segment_bits=seg_bits,
    )
    encoded = assert_same_stream(hub_graph(seed=seg_bits), config)
    assert max(len(encoded.layout(node).segment_counts) for node in (3, 7)) > 1


# ---------------------------------------------------------------------------
# Pinned cases of the partition rule
# ---------------------------------------------------------------------------

def test_remainder_of_exactly_twice_the_segment_stays_one_segment():
    # gamma, node 0, residuals 0..n-1: head 1 bit, each follower 1 bit, and
    # resNum = gamma(n + 1).  n = 115 gives 13 + 115 = 128 bits.
    gamma = get_scheme("gamma")
    residuals = list(range(115))
    assert probe_residual_run_bits(gamma, 0, residuals) == 128
    assert assert_same_partition("gamma", 64, 0, residuals) == [0, 115]


def test_remainder_one_bit_over_twice_the_segment_splits():
    gamma = get_scheme("gamma")
    residuals = list(range(116))
    assert probe_residual_run_bits(gamma, 0, residuals) == 129
    bounds = assert_same_partition("gamma", 64, 0, residuals)
    assert len(bounds) > 2
    config = CGRConfig("gamma", float("inf"), 64)
    encoded = assert_same_stream([residuals], config)
    assert encoded.neighbors(0) == residuals


def test_count_field_width_step_closes_the_segment():
    # zeta3 codes 4 bits per residual here; resNum is zeta3(count + 1), which
    # steps from 4 to 8 bits between counts 6 and 7.  Seven residuals cost
    # 28 bits of codes, which fit 34 bits alone, but not with the wider count.
    zeta3 = get_scheme("zeta3")
    residuals = list(range(20))
    assert probe_residual_run_bits(zeta3, 0, residuals[:6]) == 28
    assert probe_residual_run_bits(zeta3, 0, residuals[:7]) == 36
    bounds = assert_same_partition("zeta3", 34, 0, residuals)
    assert bounds[1] == 6


def test_first_residual_below_its_source_node():
    rng = random.Random(3)
    node = 5_000
    residuals = sorted(rng.sample(range(0, node + 50), 300))
    assert residuals[0] < node
    for scheme_name in ALL_SCHEMES:
        for seg_bits in SEGMENT_BITS:
            assert_same_partition(scheme_name, seg_bits, node, residuals)
    config = CGRConfig("zeta3", float("inf"), 128)
    adjacency = [[] for _ in range(node)] + [residuals]
    encoded = assert_same_stream(adjacency, config)
    assert encoded.neighbors(node) == residuals


def test_empty_and_single_residual_runs():
    for scheme_name in ALL_SCHEMES:
        assert assert_same_partition(scheme_name, 64, 9, []) == [0, 0]
        assert assert_same_partition(scheme_name, 64, 9, [4]) == [0, 1]


def test_lone_residual_wider_than_the_segment_is_written_as_the_last():
    # Wider than 2 * seg_bits but alone: the seed wrote it unpadded as the
    # last segment, and so does the encoder.
    residuals = [1 << 40]
    assert assert_same_partition("gamma", 16, 0, residuals) == [0, 1]
    config = CGRConfig("gamma", 4, 16)
    encoded = assert_same_stream([residuals], config)
    assert encoded.neighbors(0) == residuals


def test_degree_zero_nodes_keep_one_empty_segment():
    adjacency = [[], [0, 5, 9], [], []]
    for scheme_name in ALL_SCHEMES:
        encoded = assert_same_stream(adjacency, CGRConfig(scheme_name, 4, 64))
        assert encoded.layout(0).segment_counts == [0]
        assert encoded.neighbors(3) == []


def test_ids_past_two_to_the_64():
    base = 1 << 64
    residuals = [base + 3, base + 100, base + 7000] + [
        (1 << 65) + 11 * i for i in range(40)
    ]
    for scheme_name in ALL_SCHEMES:
        for seg_bits in (128, 1024):
            assert_same_partition(scheme_name, seg_bits, 2, residuals)
    config = CGRConfig("delta", float("inf"), 128)
    encoded = assert_same_stream([[], [], residuals], config)
    assert len(encoded.layout(2).segment_counts) > 1
    assert encoded.neighbors(2) == residuals


def test_partition_costs_linear_code_length_evaluations():
    calls = 0
    zeta3 = get_scheme("zeta3")

    def counting(value):
        nonlocal calls
        calls += 1
        return zeta3.code_length(value)

    scheme = dataclasses.replace(zeta3, code_length=counting)
    residuals = list(range(0, 40_000, 7))
    bounds = _segment_bounds(scheme, 256, 0, residuals)
    assert len(bounds) > 50
    assert calls <= 3 * len(residuals)


# ---------------------------------------------------------------------------
# Bit-level pins taken before the O(k) partition replaced the probe loop
# ---------------------------------------------------------------------------

#: sha256 prefix per scheme over the unsegmented streams of ``hub_graph(1905,
#: 60)`` at every minimum interval length.
UNSEGMENTED_DIGESTS = {
    "delta": "ce8fd49dde504f48",
    "gamma": "9456ebb97d3cd343",
    "zeta2": "e251b22d8b889290",
    "zeta3": "8281f2212d44ec10",
    "zeta4": "c7d281fa1c955d3f",
    "zeta5": "7f3d482846b3d568",
    "zeta6": "8566b3053a810c81",
}

#: The same over 128-, 256- and 1024-bit segmented streams, min interval 4.
SEGMENTED_DIGESTS = {
    "delta": "b653d47375e4f57a",
    "gamma": "c55b557310880c9c",
    "zeta2": "f9b0b3a347a24d5b",
    "zeta3": "84887fb60c8bd075",
    "zeta4": "cdd16cd58c4afaf2",
    "zeta5": "7d1714629a49b5e3",
    "zeta6": "6e07540451c285d5",
}


def _digest(configs) -> str:
    adjacency = hub_graph(1905, nodes=60)
    digest = hashlib.sha256()
    for config in configs:
        encoded = CGRGraph.from_adjacency(adjacency, config)
        digest.update(encoded.bits.to_bytes())
        digest.update(str(encoded.total_bits).encode())
        digest.update(encoded.offsets.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_unsegmented_layout_is_unchanged(scheme_name):
    configs = [CGRConfig(scheme_name, mi, None) for mi in MIN_INTERVALS]
    assert _digest(configs) == UNSEGMENTED_DIGESTS[scheme_name]


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_segmented_layout_is_unchanged(scheme_name):
    configs = [CGRConfig(scheme_name, 4, bits) for bits in (128, 256, 1024)]
    assert _digest(configs) == SEGMENTED_DIGESTS[scheme_name]


# ---------------------------------------------------------------------------
# A residual too wide for its segment
# ---------------------------------------------------------------------------

def test_oversize_residual_raises_a_clear_error():
    config = CGRConfig(vlc_scheme="gamma", residual_segment_bits=16)
    with pytest.raises(
        ValueError,
        match=r"node 0: residual 500 needs 22 bits with its resNum field, "
        r"wider than the 16-bit residual segment",
    ):
        CGRGraph.from_adjacency([[500, 1000]], config)


def local_graph(seed: int, nodes: int = 60) -> list[list[int]]:
    """Lists of ids within 15 of their node, two apart.

    Every residual code plus its ``resNum`` field then fits a 16-bit
    segment under every scheme, and the longer lists need several.
    """
    rng = random.Random(seed)
    return [
        sorted(
            node + d
            for d in rng.sample(range(-15, 16, 2), rng.randrange(0, 17))
            if node + d >= 0
        )
        for node in range(nodes)
    ]


@pytest.mark.parametrize("seg_bits", [16, 24])
@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_narrow_segments_round_trip_when_codes_fit(scheme_name, seg_bits):
    adjacency = local_graph(seed=seg_bits)
    config = CGRConfig(scheme_name, float("inf"), seg_bits)
    encoded = assert_same_stream(adjacency, config)
    assert max(len(encoded.layout(n).segment_counts) for n in range(60)) > 1
    assert encoded.decode_all() == adjacency


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=39), max_size=20),
        min_size=40,
        max_size=40,
    ),
    st.sampled_from(ALL_SCHEMES),
    st.sampled_from([8, 16, 24, 32]),
)
def test_property_narrow_segments_round_trip_or_name_the_node(
    adjacency, scheme_name, seg_bits
):
    cleaned = [sorted(set(neighbors)) for neighbors in adjacency]
    config = CGRConfig(scheme_name, 4, seg_bits)
    try:
        encoded = CGRGraph.from_adjacency(cleaned, config)
    except ValueError as error:
        assert "-bit residual segment" in str(error)
        assert str(error).startswith("node ")
        return
    assert encoded.decode_all() == cleaned
