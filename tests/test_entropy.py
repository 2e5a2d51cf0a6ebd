import dataclasses
import hashlib
import itertools
import struct
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from co3 import entropy
from co3.distmodel import GenNormParams, sample_gennorm
from co3.entropy import (
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
from co3.fpq import FP4, FpFormat, QuantizedTensor, dequantize, quantize


class Alphabet(NamedTuple):
    """A stand-in for an ``FpFormat`` of ``level_count`` levels at bias 0.

    ``encode`` reads only these two fields of a format and ``decode`` none,
    and the coding tests need alphabets of sizes that no format has.
    """

    level_count: int
    bias: float = 0.0


def coded(symbols, cb):
    """``symbols`` as a quantized tensor over the alphabet of codebook ``cb``."""
    return QuantizedTensor(symbols, Alphabet(cb.level_count))


def entropy_bits(probs):
    p = np.asarray(probs, dtype=np.float64)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def optimal_expected_length(probs):
    """Exhaustive search over all prefix codes (length assignments with Kraft = 1)."""
    n = len(probs)
    best = np.inf
    for lengths in itertools.product(range(1, n), repeat=n):
        max_len = max(lengths)
        if sum(1 << (max_len - l) for l in lengths) != 1 << max_len:
            continue
        best = min(best, sum(p * l for p, l in zip(probs, lengths)))
    return best


def random_codebook(rng, n):
    p = rng.dirichlet(np.ones(n))
    p = (p + 1e-12) / (p + 1e-12).sum()
    return build_codebook(p), p


class TestCodebook:
    def test_dyadic_example(self):
        cb = build_codebook([0.5, 0.25, 0.125, 0.125])
        assert cb.code_lengths == (1, 2, 3, 3)
        assert expected_length(cb, [0.5, 0.25, 0.125, 0.125]) == 1.75
        # canonical assignment: 0, 10, 110, 111
        assert cb.codewords == (0b0, 0b10, 0b110, 0b111)

    def test_uniform_four_levels(self):
        cb = build_codebook([0.25] * 4)
        assert cb.code_lengths == (2, 2, 2, 2)
        assert expected_length(cb, [0.25] * 4) == 2.0

    def test_two_levels(self):
        assert build_codebook([0.9, 0.1]).code_lengths == (1, 1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_codebook([1.0])
        with pytest.raises(ValueError):
            build_codebook([0.7, -0.1, 0.4])
        with pytest.raises(ValueError):
            build_codebook([0.5, 0.2])
        with pytest.raises(ValueError, match="non-finite"):
            build_codebook([np.nan, 0.5, 0.5])
        with pytest.raises(ValueError):
            expected_length(build_codebook([0.5, 0.5]), [0.3, 0.3, 0.4])

    def test_matches_exhaustive_optimum_on_small_alphabets(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            for _ in range(40):
                p = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
                cb = build_codebook(p)
                ours = expected_length(cb, p)
                assert ours == pytest.approx(optimal_expected_length(p), abs=1e-12)

    def test_kraft_equality_exact(self):
        rng = np.random.default_rng(6)
        for n in (2, 5, 16, 63):
            cb, _ = random_codebook(rng, n)
            max_len = cb.max_length
            assert sum(1 << (max_len - l) for l in cb.code_lengths) == 1 << max_len

    def test_near_degenerate_distribution_stays_under_entropy_plus_one(self):
        eps = 1e-9
        p = np.array([1 - 3 * eps, eps, eps, eps])
        cb = build_codebook(p)
        e = expected_length(cb, p)
        h = entropy_bits(p)
        assert h <= e < h + 1.0

    def test_entropy_sandwich(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            cb, p = random_codebook(rng, n)
            h = entropy_bits(p)
            e = expected_length(cb, p)
            assert h - 1e-9 <= e < h + 1.0

    def test_deterministic_and_tie_rule(self):
        p = [0.25, 0.25, 0.25, 0.25]
        a, b = build_codebook(p), build_codebook(p)
        assert a == b
        # equal probabilities: leaves merge in creation (level) order, so the
        # canonical code depends only on (length, level index)
        assert a.codewords == (0b00, 0b01, 0b10, 0b11)

    def test_tree_deeper_than_63_bits_is_a_value_error(self):
        # a valid distribution whose Huffman tree is a 69-deep chain
        p = 0.5 ** np.arange(1, 71)
        p[-1] *= 2
        with pytest.raises(ValueError, match="63-bit limit") as info:
            build_codebook(p)
        assert type(info.value) is ValueError

    def test_from_lengths_rejects_non_kraft(self):
        with pytest.raises(CorruptionError):
            HuffmanCodebook.from_lengths([1, 2, 2, 2])
        with pytest.raises(CorruptionError):
            HuffmanCodebook.from_lengths([1])
        with pytest.raises(CorruptionError):
            HuffmanCodebook.from_lengths([0, 1])

    def test_direct_construction_is_checked(self):
        with pytest.raises(CorruptionError, match="Kraft"):
            HuffmanCodebook((1, 2, 2, 2))
        with pytest.raises(TypeError, match="tuple"):
            HuffmanCodebook([1, 1])


class TestEncodeDecode:
    def test_empty_tensor(self):
        cb = build_codebook([0.5, 0.25, 0.125, 0.125])
        q = coded(np.zeros(0, dtype=np.int32), cb)
        block = encode(q, cb)
        assert block.payload_bits == 0 and block.payload == b"" and block.pad_bits == 0
        assert decode(block, cb).size == 0

    def test_repeated_symbol_payload_bits(self):
        cb = build_codebook([0.5, 0.25, 0.125, 0.125])
        q = coded(np.full(1000, 2, dtype=np.int32), cb)
        assert encode(q, cb).payload_bits == 3000

    def test_worked_example_bit_pattern(self):
        cb = build_codebook([0.5, 0.25, 0.125, 0.125])
        q = coded(np.array([0, 1, 0], dtype=np.int32), cb)
        block = encode(q, cb)
        # codes A=0, B=10 -> bits 0100 -> byte 0b01000000, pad 4
        assert block.payload == bytes([0b01000000])
        assert block.pad_bits == 4
        assert decode(block, cb).tolist() == [0, 1, 0]

    def test_out_of_range_symbol_names_index(self):
        cb = build_codebook([0.5, 0.5])
        q = coded(np.array([0, 1, 7], dtype=np.int32), cb)
        with pytest.raises(ValueError, match="index 2"):
            encode(q, cb)

    def test_round_trip_random(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 64))
            cb, _ = random_codebook(rng, n)
            sym = rng.integers(0, n, size=int(rng.integers(0, 400))).astype(np.int32)
            block = encode(coded(sym, cb), cb)
            assert np.array_equal(decode(block, cb), sym)

    def test_long_code_slow_path_round_trip(self):
        # geometric probabilities force a deep, skewed tree (max length > 16)
        n = 40
        p = np.array([2.0**-min(i + 1, n - 1) for i in range(n)])
        p /= p.sum()
        cb = build_codebook(p)
        assert cb.max_length > 16
        rng = np.random.default_rng(9)
        sym = rng.integers(0, n, size=500).astype(np.int32)
        block = encode(coded(sym, cb), cb)
        assert np.array_equal(decode(block, cb), sym)

    def test_truncation_detected(self):
        cb = build_codebook([0.5, 0.25, 0.125, 0.125])
        sym = np.array([3, 3, 3, 3], dtype=np.int32)
        block = encode(coded(sym, cb), cb)
        with pytest.raises(TruncationError):
            decode(dataclasses.replace(block, symbol_count=10), cb)

    def test_exhaustion_at_the_end_of_the_payload_detected(self):
        # four 2-bit codewords fill the byte, so a fifth symbol finds no bits left
        cb = build_codebook([0.25] * 4)
        block = encode(coded(np.arange(4, dtype=np.int32), cb), cb)
        assert block.pad_bits == 0
        with pytest.raises(TruncationError, match="5 symbols run past the 8-bit payload; 4 start in it"):
            decode(dataclasses.replace(block, symbol_count=5), cb)

    def test_table_decode_memory_per_payload_bit(self):
        # 63 levels, a 14-bit longest code: the table path at its widest use
        fmt = FpFormat(mant_bits=3, exp_bits=2)
        levels = np.arange(fmt.level_count)
        p = np.exp(-np.abs(levels - 31) / 4.0)
        p /= p.sum()
        cb = build_codebook(p)
        assert cb.max_length == 14
        sym = np.random.default_rng(4).choice(fmt.level_count, size=230_000, p=p).astype(np.int32)
        block = encode(QuantizedTensor(sym, fmt), cb)
        assert block.payload_bits >= 1_000_000
        tracemalloc.start()
        try:
            out = decode(block, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, sym)
        assert peak < 16 * block.payload_bits

    def test_long_code_decode_memory_per_payload_bit(self):
        # 255 levels, a 46-bit longest code: the same bound as for short codes
        fmt = FpFormat(mant_bits=4, exp_bits=3)
        levels = np.arange(fmt.level_count)
        p = np.exp(-np.abs(levels - 127) / 4.0)
        p /= p.sum()
        cb = build_codebook(p)
        assert cb.max_length == 46
        sym = np.random.default_rng(5).choice(fmt.level_count, size=230_000, p=p).astype(np.int32)
        block = encode(QuantizedTensor(sym, fmt), cb)
        assert block.payload_bits >= 1_000_000
        tracemalloc.start()
        try:
            out = decode(block, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, sym)
        assert peak < 16 * block.payload_bits

    def test_encode_memory_per_payload_bit(self):
        # the same 14-bit-code block as the decode bound above
        fmt = FpFormat(mant_bits=3, exp_bits=2)
        levels = np.arange(fmt.level_count)
        p = np.exp(-np.abs(levels - 31) / 4.0)
        p /= p.sum()
        cb = build_codebook(p)
        sym = np.random.default_rng(4).choice(fmt.level_count, size=230_000, p=p).astype(np.int32)
        q = QuantizedTensor(sym, fmt)
        tracemalloc.start()
        try:
            block = encode(q, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.payload_bits >= 1_000_000
        assert np.array_equal(decode(block, cb), sym)
        assert peak < 16 * block.payload_bits

    def test_encode_memory_per_payload_bit_with_one_bit_codes(self):
        # symbol 0 has a 1-bit code and makes up 96 % of the block, so the
        # symbols outnumber 3 in 4 payload bits: a per-symbol int64 copy costs 6 B/bit
        cb = HuffmanCodebook.from_lengths(list(range(1, 15)) + [14])
        p = np.full(15, 0.04 / 14)
        p[0] = 0.96
        sym = np.random.default_rng(6).choice(15, size=1_000_000, p=p).astype(np.int32)
        q = QuantizedTensor(sym, FP4)
        tracemalloc.start()
        try:
            block = encode(q, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1_100_000 <= block.payload_bits <= 1_400_000
        assert np.array_equal(decode(block, cb), sym)
        assert peak < 4 * block.payload_bits

    @pytest.mark.parametrize("longest", [1, 9, 33, 63])
    def test_encode_matches_bit_string_oracle(self, longest):
        # a chain of lengths 1..longest-1 plus two codes of the longest length;
        # 20,000 symbols cross several encode chunks and word boundaries
        lengths = list(range(1, longest)) + [longest, longest]
        cb = HuffmanCodebook.from_lengths(lengths)
        rng = np.random.default_rng(longest)
        sym = rng.integers(0, len(lengths), 20_000).astype(np.int32)
        block = encode(coded(sym, cb), cb)
        bits = "".join(format(cb.codewords[s], f"0{cb.code_lengths[s]}b") for s in sym)
        bits += "0" * (-len(bits) % 8)
        assert block.payload == int(bits, 2).to_bytes(len(bits) // 8, "big")
        assert block.payload_bits + block.pad_bits == len(bits)

    def test_trailing_garbage_detected(self):
        cb = build_codebook([0.5, 0.25, 0.125, 0.125])
        sym = np.array([0, 1, 0], dtype=np.int32)
        good = encode(coded(sym, cb), cb)
        # flip a pad bit
        corrupted = EncodedBlock(
            user_id=good.user_id,
            iteration=good.iteration,
            layer_id=good.layer_id,
            fmt=good.fmt,
            code_lengths=good.code_lengths,
            symbol_count=good.symbol_count,
            payload=bytes([good.payload[0] | 0b1]),
            pad_bits=good.pad_bits,
        )
        with pytest.raises(CorruptionError, match="pad"):
            decode(corrupted, cb)

    def test_foreign_codebook_detected(self):
        # the block's lengths in reverse order: an equally valid code that
        # would decode every symbol of the block to another level
        fmt = FP4
        counts = np.arange(1, fmt.level_count + 1)
        cb = build_codebook(counts / counts.sum())
        foreign = HuffmanCodebook(cb.code_lengths[::-1])
        assert foreign != cb
        sym = np.random.default_rng(12).integers(0, fmt.level_count, 500).astype(np.int32)
        block = encode(QuantizedTensor(sym, fmt), cb)
        with pytest.raises(CorruptionError, match="not the block's"):
            decode(block, foreign)

    def test_wrong_symbol_count_vs_padding(self):
        cb = build_codebook([0.5, 0.25, 0.125, 0.125])
        sym = np.array([0, 1, 0], dtype=np.int32)
        block = encode(coded(sym, cb), cb)
        with pytest.raises(CorruptionError):
            decode(dataclasses.replace(block, symbol_count=2), cb)  # leaves undeclared trailing bits


class TestWireFormat:
    def test_golden_header_bytes(self):
        fmt = FpFormat(mant_bits=2, exp_bits=1, bias=1.0)
        cb = build_codebook([0.5, 0.5] + [0.0] * 13)
        sym = np.array([0, 1], dtype=np.int32)
        block = encode(QuantizedTensor(sym, fmt), cb, user_id=3, iteration=7, layer_id=2)
        raw = block.to_bytes()
        assert raw[:4] == b"CO3\x01"
        assert struct.unpack_from("<H", raw, 4)[0] == 3  # user
        assert struct.unpack_from("<I", raw, 6)[0] == 7  # iteration
        assert struct.unpack_from("<H", raw, 10)[0] == 2  # layer
        assert struct.unpack_from("<Q", raw, 12)[0] == 2  # symbol count
        assert raw[20:23] == bytes([1, 2, 1])  # sign, mant, exp
        assert struct.unpack_from("<f", raw, 23)[0] == 1.0  # bias
        assert struct.unpack_from("<H", raw, 27)[0] == 15  # level count
        assert len(raw) == 29 + 15 + 1 + len(block.payload)
        assert block.header_bits == 8 * (29 + 15 + 1)

    def test_bytes_round_trip(self):
        rng = np.random.default_rng(10)
        fmt = FpFormat(mant_bits=2, exp_bits=1, bias=float(np.float32(-3.7)))
        x = rng.normal(0, 0.1, size=50)
        q = quantize(x, fmt)
        cb = build_codebook(np.full(fmt.level_count, 1.0 / fmt.level_count))
        block = encode(q, cb, user_id=1, iteration=2, layer_id=0)
        parsed = EncodedBlock.from_bytes(block.to_bytes())
        assert parsed == block
        out = decode_block(parsed)
        assert np.array_equal(out.symbols, q.symbols.ravel())
        assert out.fmt == fmt

    def test_bias_the_header_cannot_carry_is_rejected(self):
        # the header holds the bias as a float32; 0.3 is not one, and a block
        # carrying it rounded would decode to other values
        x = np.random.default_rng(11).normal(0, 1, size=1000)
        cb = build_codebook(np.full(15, 1 / 15))
        with pytest.raises(ValueError, match="float32"):
            encode(quantize(x, FP4.with_bias(0.3)), cb)
        fmt = FP4.with_bias(float(np.float32(0.3)))
        q = quantize(x, fmt)
        parsed = EncodedBlock.from_bytes(encode(q, cb).to_bytes())
        assert parsed.fmt == fmt
        assert np.array_equal(dequantize(decode_block(parsed)), dequantize(q))

    def test_codebook_of_another_level_count_is_rejected(self):
        # a 16-level code would decode the block in memory, but its header
        # says 16 levels where the format has 15, which no reader accepts
        q = quantize(np.random.default_rng(11).normal(0, 1, size=100), FP4)
        with pytest.raises(ValueError, match="16-level codebook for a 15-level format"):
            encode(q, HuffmanCodebook.from_lengths([4] * 16))

    @pytest.mark.parametrize(
        "ids, field",
        [
            (dict(user_id=70_000), "user_id 70000"),
            (dict(user_id=-1), "user_id -1"),
            (dict(iteration=2**32), "iteration 4294967296"),
            (dict(layer_id=2**16), "layer_id 65536"),
        ],
    )
    def test_ids_the_header_cannot_carry_are_rejected(self, ids, field):
        q = quantize(np.random.default_rng(11).normal(0, 1, size=100), FP4)
        cb = build_codebook(np.full(15, 1 / 15))
        with pytest.raises(ValueError, match=f"{field} does not fit the header"):
            encode(q, cb, **ids)
        largest = encode(q, cb, user_id=2**16 - 1, iteration=2**32 - 1, layer_id=2**16 - 1)
        assert EncodedBlock.from_bytes(largest.to_bytes()) == largest

    def test_bad_magic_and_truncation(self):
        fmt = FP4
        cb = build_codebook(np.full(15, 1 / 15))
        block = encode(quantize(np.zeros(4), fmt), cb)
        raw = bytearray(block.to_bytes())
        raw[0] = ord("X")
        with pytest.raises(CorruptionError, match="magic"):
            EncodedBlock.from_bytes(bytes(raw))
        with pytest.raises(TruncationError):
            EncodedBlock.from_bytes(block.to_bytes()[:10])

    def test_forged_symbol_count_fails_before_allocating(self):
        cb = build_codebook(np.full(15, 1 / 15))
        raw = bytearray(encode(quantize(np.linspace(-1, 1, 40), FP4), cb).to_bytes())
        struct.pack_into("<Q", raw, 12, 2**40)  # 4 TiB of int32 output
        block = EncodedBlock.from_bytes(bytes(raw))
        assert block.symbol_count == 2**40
        with pytest.raises(TruncationError):
            decode_block(block)

    @staticmethod
    def _forged(offset, fmt, value):
        cb = build_codebook(np.full(15, 1 / 15))
        raw = bytearray(encode(quantize(np.linspace(-1, 1, 40), FP4), cb).to_bytes())
        struct.pack_into(fmt, raw, offset, value)
        return bytes(raw)

    def test_forged_underflowing_bias_rejected(self):
        # at bias -1100 every FP4 level is +-0, so any payload would decode to zeros
        with pytest.raises(CorruptionError, match="underflow"):
            EncodedBlock.from_bytes(self._forged(23, "<f", -1100.0))

    @pytest.mark.parametrize(
        "offset, fmt, value",
        [
            (23, "<f", float("nan")),
            (23, "<f", float("inf")),
            (23, "<f", float("-inf")),
            (23, "<f", 1023.5),  # the top level overflows float64
            (20, "<B", 2),  # sign bits
            (21, "<B", 15),  # mant bits: 1 + 15 + 1 bits in all
            (22, "<B", 0),  # exp bits
        ],
    )
    def test_forged_header_format_raises_corruption(self, offset, fmt, value):
        with pytest.raises(CorruptionError, match="invalid format"):
            EncodedBlock.from_bytes(self._forged(offset, fmt, value))


def oracle_decode(payload, pad_bits, count, lengths, codewords):
    """Reference prefix decoder: reads one bit at a time; None where the block is invalid."""
    bits = "".join(f"{byte:08b}" for byte in payload)
    table = {(ln, code): level for level, (ln, code) in enumerate(zip(lengths, codewords))}
    out, pos = [], 0
    while len(out) < count:
        ln, code = 0, 0
        while (ln, code) not in table:
            if pos == len(bits):
                return None
            ln, code, pos = ln + 1, 2 * code + int(bits[pos]), pos + 1
        out.append(table[ln, code])
    tail = bits[pos:]
    return out if len(tail) == pad_bits and "1" not in tail else None


@st.composite
def canonical_codebooks(draw):
    """Kraft-complete lengths: a chain down to the longest code, then random leaf splits."""
    longest = draw(st.integers(1, 63))
    lengths = list(range(1, longest)) + [longest, longest]
    for pick in draw(st.lists(st.integers(0, 1000), max_size=12)):
        i = pick % len(lengths)
        if lengths[i] < longest:
            lengths[i : i + 1] = [lengths[i] + 1] * 2
    return HuffmanCodebook.from_lengths(draw(st.permutations(lengths)))


MUTATIONS = ("truncate", "append", "flip", "pad", "count")


@st.composite
def mutated_blocks(draw, codebooks=canonical_codebooks()):
    """An encoded block with any combination of the mutations applied."""
    cb = draw(codebooks)
    sym = draw(st.lists(st.integers(0, cb.level_count - 1), max_size=40))
    block = encode(coded(np.array(sym, dtype=np.int32), cb), cb)
    payload, fields = bytearray(block.payload), {}
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), unique=True)):
        if kind == "truncate":
            del payload[draw(st.integers(0, len(payload))) :]
        elif kind == "append":
            payload.append(draw(st.integers(0, 255)))
        elif kind == "flip" and payload:
            bit = draw(st.integers(0, 8 * len(payload) - 1))
            payload[bit // 8] ^= 0x80 >> bit % 8
        elif kind == "pad":
            fields["pad_bits"] = draw(st.integers(0, 8))
        elif kind == "count":
            fields["symbol_count"] = draw(st.integers(0, len(sym) + 4) | st.integers(0, 2**64 - 1))
    return cb, dataclasses.replace(block, payload=bytes(payload), **fields)


def assert_matches_oracle(cb, block):
    expected = oracle_decode(
        block.payload, block.pad_bits, block.symbol_count, cb.code_lengths, cb.codewords
    )
    if expected is None:
        with pytest.raises((TruncationError, CorruptionError)):
            decode(block, cb)
    else:
        assert decode(block, cb).tolist() == expected


ORACLE_SETTINGS = settings(
    deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestDecodeOracle:
    @settings(ORACLE_SETTINGS, max_examples=1000)
    @given(mutated_blocks())
    def test_decode_agrees_with_bitwise_oracle(self, case):
        assert_matches_oracle(*case)

    @settings(ORACLE_SETTINGS, max_examples=100)
    @given(mutated_blocks(st.permutations([*range(1, 64), 63]).map(HuffmanCodebook.from_lengths)))
    def test_decode_agrees_with_bitwise_oracle_on_63_bit_codes(self, case):
        assert_matches_oracle(*case)


# codebooks around the decode table's width k = 12: every code longer than it
# ([1,7,6] at uniform probabilities: 13- and 14-bit codes), codes of exactly
# k and k + 1 bits, and all of one length either side of k
TABLE_EDGE_CODEBOOKS = {
    "uniform-1-7-6": build_codebook(np.full(2**14 - 1, 1 / (2**14 - 1))),
    "chain-to-12": HuffmanCodebook.from_lengths((*range(1, 12), 12, 12)),
    "chain-to-13": HuffmanCodebook.from_lengths((*range(1, 13), 13, 13)),
    "12-and-13": HuffmanCodebook.from_lengths((12,) * 4095 + (13, 13)),
    "all-12": HuffmanCodebook.from_lengths((12,) * 4096),
    "all-13": HuffmanCodebook.from_lengths((13,) * 8192),
}


def per_level_codewords(lengths):
    """The canonical assignment level by level: in (length, level) order, each code is the last plus one, shifted to its length."""
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    codes = [0] * len(lengths)
    code, prev_len = 0, lengths[order[0]]
    for rank, i in enumerate(order):
        if rank:
            code = (code + 1) << (lengths[i] - prev_len)
        codes[i] = code
        prev_len = lengths[i]
    return tuple(codes)


def repeat_lookup_table(lengths, k):
    """The k-bit lookup table filled run by run: in canonical order from entry 0, a code of l <= k bits fills 2**(k - l) entries."""
    lut_len, lut_sym = [], []
    for i in sorted(range(len(lengths)), key=lambda i: (lengths[i], i)):
        if lengths[i] <= k:
            lut_len += [lengths[i]] * (1 << (k - lengths[i]))
            lut_sym += [i] * (1 << (k - lengths[i]))
    rest = [0] * ((1 << k) - len(lut_len))
    return lut_len + rest, lut_sym + rest


class TestDecodeTables:
    @settings(ORACLE_SETTINGS, max_examples=300)
    @given(canonical_codebooks())
    def test_kraft_sums_agree_with_the_per_level_assignment(self, cb):
        assert cb.codewords == per_level_codewords(cb.code_lengths)
        lut_len, lut_sym = repeat_lookup_table(cb.code_lengths, min(cb.max_length, entropy._TABLE_BITS))
        tables = entropy._code_tables(cb)
        assert tables.lut_len.tolist() == lut_len
        assert tables.lut_sym.tolist() == lut_sym

    def test_uniform_1_7_6_codes_are_all_longer_than_the_table(self):
        cb = TABLE_EDGE_CODEBOOKS["uniform-1-7-6"]
        assert set(cb.code_lengths) == {13, 14}
        assert entropy._code_tables(cb).long_from == 0

    @pytest.mark.parametrize("name", TABLE_EDGE_CODEBOOKS)
    def test_long_from_is_the_first_window_of_a_code_longer_than_the_table(self, name):
        cb = TABLE_EDGE_CODEBOOKS[name]
        longer = [
            code << (cb.max_length - length)
            for length, code in zip(cb.code_lengths, cb.codewords)
            if length > entropy._TABLE_BITS
        ]
        expected = min(longer) if longer else 1 << cb.max_length
        assert entropy._code_tables(cb).long_from == expected

    @pytest.mark.parametrize("name", TABLE_EDGE_CODEBOOKS)
    def test_decode_agrees_with_oracle_across_chunks(self, name):
        # 3000 symbols, the longest codes first, cross several 8192-bit decode chunks
        cb = TABLE_EDGE_CODEBOOKS[name]
        rng = np.random.default_rng(len(cb.code_lengths))
        sym = rng.integers(0, cb.level_count, 3000).astype(np.int32)
        longest = np.argsort(cb.code_lengths, kind="stable")[-20:]
        sym[: longest.size] = longest
        block = encode(coded(sym, cb), cb)
        assert decode(block, cb).tolist() == sym.tolist()
        assert_matches_oracle(cb, block)

    @settings(ORACLE_SETTINGS, max_examples=300)
    @given(mutated_blocks(st.sampled_from(list(TABLE_EDGE_CODEBOOKS.values()))))
    def test_mutated_blocks_agree_with_oracle(self, case):
        assert_matches_oracle(*case)

    def test_two_decodes_with_one_codebook_build_its_tables_once(self):
        cb = build_codebook([0.4, 0.3, 0.2, 0.1])
        block = encode(coded(np.array([0, 3, 1, 2], dtype=np.int32), cb), cb)
        entropy._code_tables.cache_clear()
        decode(block, cb)
        decode_block(block)  # rebuilds an equal codebook from the header's lengths
        info = entropy._code_tables.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_encode_and_decode_read_one_table(self):
        cb = build_codebook([0.4, 0.3, 0.2, 0.1])
        entropy._code_tables.cache_clear()
        decode(encode(coded(np.array([0, 3, 1, 2], dtype=np.int32), cb), cb), cb)
        info = entropy._code_tables.cache_info()
        assert (info.misses, info.hits) == (1, 1)


# (mant_bits, exp_bits, biases), each bias with a GenNorm of shape 0.6, 1.0, 1.4
GOLDEN_CASES = (
    (2, 1, (-0.71, 0.37, 1.13)),
    (3, 2, (-2.29, -1.41, 0.53)),
    (4, 3, (-5.83, -3.37, -1.61)),
)
# sha256 of the nine blocks below, computed before quantize and decode were table-driven
GOLDEN_DIGEST = "94693663e14bb192d7ef67a88650ac12bd3ef9348345e49cac87623e27cf9f5f"


class TestGoldenStreams:
    def test_quantize_encode_bytes_digest(self):
        # float32-rounded inputs and a codebook from integer counts: no BLAS and
        # no transcendental function reaches the bits, so they do not vary by machine
        rng = np.random.default_rng(17)
        h = hashlib.sha256()
        for mant, exp, biases in GOLDEN_CASES:
            for i, (beta, bias) in enumerate(zip((0.6, 1.0, 1.4), biases)):
                fmt = FpFormat(mant, exp, float(np.float32(bias)))
                x = sample_gennorm(GenNormParams(beta, 0.0, 0.5), 3000, rng).astype(np.float32)
                q = quantize(x.astype(np.float64), fmt)
                counts = np.bincount(q.symbols, minlength=fmt.level_count) + 1
                block = encode(q, build_codebook(counts / counts.sum()), user_id=i, iteration=mant, layer_id=exp)
                assert np.array_equal(decode_block(EncodedBlock.from_bytes(block.to_bytes())).symbols, q.symbols)
                h.update(block.to_bytes())
        assert h.hexdigest() == GOLDEN_DIGEST


class TestLedger:
    def test_empty_total(self):
        assert PayloadLedger().total() == 0

    def test_two_records(self):
        led = PayloadLedger()
        led.record(0, 0, 0, 8, 0)
        led.record(0, 1, 0, 16, 0)
        assert led.total() == 24
        assert led.total(include_headers=False) == 24

    def test_headers_separated(self):
        led = PayloadLedger()
        led.record(0, 0, 0, 100, 360)
        led.record(1, 0, 0, 50, 360)
        assert led.total(include_headers=True) == 870
        assert led.total(include_headers=False) == 150
        assert led.payload_total == 150 and led.header_total == 720

    def test_duplicate_key_rejected(self):
        led = PayloadLedger()
        led.record(0, 0, 0, 1, 1)
        with pytest.raises(ValueError, match="duplicate"):
            led.record(0, 0, 0, 1, 1)

    def test_totals_do_not_depend_on_record_order(self):
        keys = [(u, t) for u in range(8) for t in range(200)]
        totals = set()
        for seed in range(3):
            led = PayloadLedger()
            for i in np.random.default_rng(seed).permutation(len(keys)):
                u, t = keys[i]
                led.record(u, t, 0, 3 + u, 5)
            totals.add((led.payload_total, led.header_total, len(led)))
        assert totals == {(200 * sum(3 + u for u in range(8)), 8 * 200 * 5, 1600)}
