"""Canonical Huffman coding over quantization levels and the uplink bit ledger.

One bitstream block is produced per (user, iteration, layer). The wire layout
is bit-exact and fully self-describing on the decode side:

    magic "CO3" | version 0x01 | user_id u16 | iteration u32 | layer_id u16 |
    symbol_count u64 | sign_bits u8, mant_bits u8, exp_bits u8 | bias f32 |
    level_count u16 | code lengths (level_count bytes, ascending level order) |
    pad_bit_count u8 | payload bytes

All multi-byte integers are little-endian; codewords are packed MSB-first and
the final byte is zero-padded. The sign field must be 1, as every format has
one sign bit; the payload holds 8 * its bytes - pad_bit_count bits. A code is
its lengths: in (length, level) order, the canonical codeword of rank i,
left-justified to the longest length M, is the Kraft sum sum_{j<i} 2**(M - L_j),
so encoder and decoder derive identical codes, and one table per codebook,
built once from the lengths, serves both.

Encoding places each codeword into the big-endian 64-bit word holding its
first bit: the codewords starting in one word are OR-reduced into it, and only
the last of them can spill into the next word, since codes have at most 63
bits. It runs in chunks of 8192 symbols, so no array holds an entry per bit.

Decoding is one vectorized path for every code length up to 63 bits. The
canonical codewords left-justified to M ascend, so one rule, a searchsorted
among each length's first codeword, places the window of M bits at each
payload bit: it gives the length and level of the codeword starting there. A
lookup table over the window's first k = min(M, 12) bits holds its answers for
the codes of at most k bits; only the windows at or past the first longer code
(few: their Kraft mass is small) take the searchsorted. Pointer doubling
composes lengths into jumps over 4 codewords; a Python walk visits every 4th
start and strided gathers fill in the rest. Checked: the codebook's lengths
are the block's, no more symbols than payload bits (before allocating), none
starting or ending past the payload, and exactly the declared pad bits after
the last, all zero. Chunks of 8192 windows and uint8 per-bit arrays keep large
blocks under 16 bytes per bit.
"""

import heapq
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fpq import FpFormat, QuantizedTensor

MAGIC = b"CO3"
VERSION = 1
_MAX_CODE_LEN = 63
_DOUBLINGS = 2  # decode jumps 2**2 codewords at a time; 4 * 63 bits fit in uint8
_CHUNK = 1 << 13  # bit positions per decode step, symbols per encode step; bounds the temporaries
_BIT = np.arange(64, dtype=np.uint64)  # bit offset of a window within its word
_RBIT = 64 - _BIT  # its shift into the next word
_TABLE_BITS = 12  # decode looks up codes of at most this many bits by the window's first bits

_HEADER = struct.Struct("<3sBHIHQBBBfH")  # through level_count


class TruncationError(ValueError):
    """Bitstream ended before the requested number of symbols."""


class CorruptionError(ValueError):
    """Bitstream structure is inconsistent (bad magic, lengths, or padding)."""


@dataclass(frozen=True)
class HuffmanCodebook:
    """Canonical prefix code over the level alphabet: its code lengths in ascending level order, checked when built."""

    code_lengths: tuple

    def __post_init__(self):
        lengths = self.code_lengths
        if not isinstance(lengths, tuple):
            raise TypeError("code_lengths must be a tuple; from_lengths takes any iterable")
        if len(lengths) < 2:
            raise CorruptionError("a codebook needs at least 2 levels")
        if any(l < 1 or l > _MAX_CODE_LEN for l in lengths):
            raise CorruptionError(f"code lengths must lie in [1, {_MAX_CODE_LEN}]")
        max_len = max(lengths)
        if sum(1 << (max_len - l) for l in lengths) != 1 << max_len:
            raise CorruptionError("code lengths violate Kraft equality")

    @property
    def level_count(self):
        return len(self.code_lengths)

    @property
    def max_length(self):
        return max(self.code_lengths)

    @property
    def codewords(self):
        """Each level's canonical codeword, as an int of its code length's bits."""
        t = _code_tables(self)
        return tuple((t.left >> (64 - t.lengths).astype(np.uint64)).tolist())

    @classmethod
    def from_lengths(cls, lengths):
        """The codebook of an iterable of per-level code lengths."""
        return cls(tuple(int(l) for l in lengths))


def build_codebook(probs):
    """Optimal prefix code for ``probs`` with deterministic tie-breaking.

    Heap priority is (probability, creation order): leaves are created in
    level order, merged nodes afterwards, so equal-probability ties always
    resolve the same way. The result is converted to canonical form.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("need a 1-D probability vector with at least 2 levels")
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite probability")
    if np.any(p < 0):
        raise ValueError("negative probability")
    if abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {p.sum():.8f}, expected 1")
    n = p.size
    heap = [(float(p[i]), i) for i in range(n)]
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)  # node 2n-2 is the root
    for node in range(n, 2 * n - 1):
        (p1, n1), (p2, n2) = heapq.heappop(heap), heapq.heappop(heap)
        parent[n1] = parent[n2] = node
        heapq.heappush(heap, (p1 + p2, node))
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):  # every parent is numbered above its children
        depth[node] = depth[parent[node]] + 1
    if max(depth[:n]) > _MAX_CODE_LEN:
        raise ValueError(
            f"the Huffman code for these probabilities is {max(depth[:n])} bits deep, "
            f"past the {_MAX_CODE_LEN}-bit limit of the wire format"
        )
    return HuffmanCodebook.from_lengths(depth[:n])


def expected_length(codebook, probs):
    """Mean codeword length sum(p_l * len_l) in bits per symbol."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size != codebook.level_count:
        raise ValueError(
            f"dimension mismatch: {p.size} probabilities vs {codebook.level_count} levels"
        )
    return float(np.dot(p, np.asarray(codebook.code_lengths, dtype=np.float64)))


# ----------------------------------------------------------------------
# block encode / decode


@dataclass(frozen=True)
class EncodedBlock:
    """One coded (user, iteration, layer) tensor plus the header metadata."""

    user_id: int
    iteration: int
    layer_id: int
    fmt: FpFormat
    code_lengths: tuple
    symbol_count: int
    payload: bytes
    pad_bits: int

    @property
    def payload_bits(self):
        return 8 * len(self.payload) - self.pad_bits

    @property
    def header_bits(self):
        return 8 * (_HEADER.size + len(self.code_lengths) + 1)

    def to_bytes(self):
        head = _HEADER.pack(
            MAGIC,
            VERSION,
            self.user_id,
            self.iteration,
            self.layer_id,
            self.symbol_count,
            1,  # sign bits
            self.fmt.mant_bits,
            self.fmt.exp_bits,
            self.fmt.bias,
            len(self.code_lengths),
        )
        return head + bytes(self.code_lengths) + bytes([self.pad_bits]) + self.payload

    @classmethod
    def from_bytes(cls, data):
        """Parse one block; the remainder of ``data`` after the header is the payload."""
        if len(data) < _HEADER.size:
            raise TruncationError("block shorter than the fixed header")
        magic, version, user, iteration, layer, count, sgn, mant, exp, bias, levels = (
            _HEADER.unpack_from(data, 0)
        )
        if magic != MAGIC:
            raise CorruptionError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CorruptionError(f"unsupported version {version}")
        pos = _HEADER.size
        if len(data) < pos + levels + 1:
            raise TruncationError("block ends inside the code-length table")
        lengths = tuple(data[pos : pos + levels])
        pos += levels
        pad = data[pos]
        pos += 1
        if pad > 7:
            raise CorruptionError(f"pad bit count {pad} out of range")
        payload = bytes(data[pos:])
        if 8 * len(payload) < pad:
            raise CorruptionError("pad bits exceed the payload")
        if sgn != 1:
            raise CorruptionError(f"invalid format in the header: {sgn} sign bits, not 1")
        try:
            fmt = FpFormat(mant_bits=mant, exp_bits=exp, bias=bias)
        except ValueError as err:
            raise CorruptionError(f"invalid format in the header: {err}") from err
        if levels != fmt.level_count:
            raise CorruptionError(
                f"header says {levels} levels but the format has {fmt.level_count}"
            )
        return cls(user, iteration, layer, fmt, lengths, count, payload, pad)


def encode(q, codebook, *, user_id=0, iteration=0, layer_id=0):
    """Concatenate canonical codewords MSB-first and byte-pad with zeros.

    The header must carry the block, so the codebook has the format's level
    count, the format's bias is a float32, and the ids fit their u16, u32
    and u16 fields; any other block raises ``ValueError``.
    """
    if codebook.level_count != q.fmt.level_count:
        raise ValueError(f"a {codebook.level_count}-level codebook for a {q.fmt.level_count}-level format")
    for name, value, bits in (("user_id", user_id, 16), ("iteration", iteration, 32), ("layer_id", layer_id, 16)):
        if not 0 <= value < 1 << bits:
            raise ValueError(f"{name} {value} does not fit the header's u{bits} field")
    sym = np.asarray(q.symbols).ravel()
    if sym.size and (sym.min() < 0 or sym.max() >= codebook.level_count):
        bad = int(np.argwhere((sym < 0) | (sym >= codebook.level_count))[0][0])
        raise ValueError(
            f"symbol {int(sym[bad])} at index {bad} outside the {codebook.level_count}-level alphabet"
        )
    if float(np.float32(q.fmt.bias)) != q.fmt.bias:
        raise ValueError(f"bias {q.fmt.bias!r} is not a float32, so the header cannot carry it")
    t = _code_tables(codebook)
    total = sum(int(t.lengths[sym[a : a + _CHUNK]].sum()) for a in range(0, sym.size, _CHUNK))
    # codewords left-justified in 64 bits: shifted right by the offset of
    # their first bit, they OR into that bit's word, and the bits shifted out
    # spill into the next word; codes of at most 63 bits span two words at
    # most, so only the last codeword starting in a word can spill
    words = np.zeros((total >> 6) + 2, dtype=np.uint64)
    end = 0
    for a in range(0, sym.size, _CHUNK):
        chunk = sym[a : a + _CHUNK]
        lengths = t.lengths[chunk]
        ends = np.cumsum(lengths) + end
        end = int(ends[-1])
        starts = ends - lengths
        word = starts >> 6
        offset = (starts & 63).astype(np.uint64)
        codes = t.left[chunk]
        first = np.empty(chunk.size, dtype=bool)
        first[0] = True
        np.not_equal(word[1:], word[:-1], out=first[1:])
        runs = np.flatnonzero(first)
        words[word[runs]] |= np.bitwise_or.reduceat(codes >> offset, runs)
        spill = np.flatnonzero((ends - 1) >> 6 > word)
        words[word[spill] + 1] |= codes[spill] << (64 - offset[spill])
    payload = words.astype(">u8").tobytes()[: (total + 7) >> 3]
    pad = (-total) % 8
    return EncodedBlock(
        user_id=user_id,
        iteration=iteration,
        layer_id=layer_id,
        fmt=q.fmt,
        code_lengths=tuple(codebook.code_lengths),
        symbol_count=int(sym.size),
        payload=payload,
        pad_bits=pad,
    )


class _CodeTables(NamedTuple):
    """A codebook's codewords, its canonical runs and its lookup table over the first bits of a window."""

    lengths: np.ndarray  # per level: its code length
    left: np.ndarray  # per level: its codeword left-justified in 64 bits
    order: np.ndarray  # levels in canonical (length, level) order
    limits: np.ndarray  # left-justified first codeword of each run after the first
    shifts: np.ndarray  # per run: window bits below its code length
    offsets: np.ndarray  # per run: its first codeword minus its first canonical rank
    run_lens: np.ndarray  # per run: its code length
    lut_len: np.ndarray  # per prefix: length of the codeword it begins, 0 if longer than the table
    lut_sym: np.ndarray  # per prefix: level of that codeword
    long_from: np.uint64  # the first window (of the longest code's width) whose code is longer than the table


def _lookup(tables, windows):
    """Length and level of the codeword each window (of the longest code's width) begins; its run is the number of run starts it reaches."""
    run = np.searchsorted(tables.limits, windows, side="right")
    levels = tables.order[((windows >> tables.shifts[run]) - tables.offsets[run]).view(np.int64)]
    return tables.run_lens[run], levels


@lru_cache(maxsize=64)
def _code_tables(codebook):
    """Tables for ``encode`` and ``decode``, built once per codebook; every array is read-only.

    The codewords are Kraft sums, which total 2**M <= 2**63, so uint64 holds them exactly.
    """
    lengths = np.asarray(codebook.code_lengths, dtype=np.int64)
    top = codebook.max_length
    order = np.argsort(lengths, kind="stable")
    lens = lengths[order].astype(np.uint64)
    kraft = np.zeros(lengths.size + 1, dtype=np.uint64)
    np.cumsum(np.uint64(1) << (np.uint64(top) - lens), out=kraft[1:])
    codes = kraft[:-1]
    left = np.empty_like(codes)
    left[order] = codes << np.uint64(64 - top)
    first = np.flatnonzero(np.diff(lens, prepend=0))
    shifts = top - lens[first]
    # the lookup table is the canonical tiling: each code of l <= k bits, in
    # canonical order from entry 0, fills the 2**(k - l) prefixes it begins
    k = min(top, _TABLE_BITS)
    short = int(np.searchsorted(lens, k, side="right"))  # the longer codes come last
    span = 1 << (k - lengths[order[:short]])
    filled = int(span.sum())
    lut_len = np.zeros(1 << k, dtype=np.uint8)
    lut_sym = np.zeros(1 << k, dtype=np.min_scalar_type(codebook.level_count - 1))
    lut_len[:filled] = np.repeat(lens[:short], span)
    lut_sym[:filled] = np.repeat(order[:short], span)
    tables = _CodeTables(
        lengths=lengths,
        left=left,
        order=order,
        limits=codes[first[1:]],
        shifts=shifts,
        offsets=(codes[first] >> shifts) - first.astype(np.uint64),
        run_lens=lens[first].astype(np.uint8),
        lut_len=lut_len,
        lut_sym=lut_sym,
        long_from=kraft[short],
    )
    for table in tables:
        if isinstance(table, np.ndarray):
            table.setflags(write=False)
    return tables


def decode(block, codebook, symbol_count=None):
    """Recover the block's ``symbol_count`` symbols exactly; validates the codebook, consumption and padding.

    No caller in co3 passes ``symbol_count``; it stays only because the
    benchmark's tests wrap ``decode`` with a signature that passes it on.
    """
    if codebook.code_lengths != block.code_lengths:
        raise CorruptionError("the codebook's code lengths are not the block's")
    n = block.symbol_count if symbol_count is None else symbol_count
    nbits = 8 * len(block.payload)
    # every codeword is at least 1 bit; check before allocating the output
    if n > nbits:
        raise TruncationError(f"{n} symbols cannot fit in {nbits} payload bits")
    out = np.empty(n, dtype=np.int32)
    t = _code_tables(codebook)
    pad = bytes(-len(block.payload) % 8 + 16)  # so that every window has a next word
    words = np.frombuffer(block.payload + pad, dtype=">u8").astype(np.uint64)
    to_width = np.uint64(64 - codebook.max_length)
    to_prefix = np.uint64(codebook.max_length - min(codebook.max_length, _TABLE_BITS))
    # d[p], sym[p]: length and level of a codeword starting at bit p; d is 0
    # from nbits on, so that every walk which leaves the payload stops there
    d = np.zeros(nbits + 64, dtype=np.uint8)
    sym = np.zeros(d.size, dtype=t.lut_sym.dtype)
    for a in range(0, nbits, _CHUNK):
        w = words[a >> 6 : (a + _CHUNK >> 6) + 1, None]
        win = w[:-1] << _BIT
        win |= w[1:] >> _RBIT
        win >>= to_width
        win = win.ravel()[: nbits - a]
        prefix = (win >> to_prefix).view(np.int64)
        np.take(t.lut_len, prefix, out=d[a : a + win.size])
        np.take(t.lut_sym, prefix, out=sym[a : a + win.size])
        if codebook.max_length > _TABLE_BITS:
            # the windows that begin a code longer than the table
            long = np.flatnonzero(win >= t.long_from)
            d[a + long], sym[a + long] = _lookup(t, win[long])
    # jump[p]: bits spanned by the 2**k codewords from p, by pointer doubling
    jump = d
    for _ in range(_DOUBLINGS):
        doubled = np.zeros_like(d)
        for a in range(0, nbits, _CHUNK):
            seg = jump[a : a + _CHUNK]
            doubled[a : a + seg.size] = seg + jump[np.arange(a, a + seg.size) + seg]
        jump = doubled
    # every 2**k-th start by a walk in Python, the starts between by strided steps
    step, top = 1 << _DOUBLINGS, memoryview(jump)
    starts = np.empty(-(-n // step), dtype=np.int64)
    walk, p = memoryview(starts), 0
    for i in range(starts.size):
        walk[i] = p
        p += top[p]
    s, decoded, end = starts, 0, 0
    for j in range(min(step, n)):
        s = s[: -(-(n - j) // step)]
        out[j::step] = sym[s]
        decoded += np.count_nonzero(s < nbits)
        s = s + d[s]
        if j == (n - 1) % step:
            end = int(s[-1])
    if decoded < n or end > nbits:
        raise TruncationError(f"{n} symbols run past the {nbits}-bit payload; {decoded} start in it")
    trailing = nbits - end
    if trailing != block.pad_bits:
        raise CorruptionError(
            f"{trailing} trailing bits but the header declares {block.pad_bits} pad bits"
        )
    if int.from_bytes(block.payload[end >> 3 :], "big") % (1 << trailing):  # pad = its low bits
        raise CorruptionError("non-zero pad bits")
    return out


def decode_block(block):
    """Wire-only decode: rebuild the canonical codebook from header lengths."""
    codebook = HuffmanCodebook.from_lengths(block.code_lengths)
    symbols = decode(block, codebook)
    return QuantizedTensor(symbols, block.fmt)


# ----------------------------------------------------------------------
# payload accounting


class PayloadLedger:
    """Per-(user, iteration, layer) bit counts with order-independent totals.

    The totals are sums of non-negative integers, so the order in which
    blocks are recorded does not change them.
    """

    def __init__(self):
        self.records = {}
        self._payload_total = 0
        self._header_total = 0

    def record(self, user_id, iteration, layer_id, payload_bits, header_bits):
        if payload_bits < 0 or header_bits < 0:
            raise ValueError("bit counts must be non-negative")
        key = (user_id, iteration, layer_id)
        if key in self.records:
            raise ValueError(f"duplicate ledger record for {key}")
        self.records[key] = (int(payload_bits), int(header_bits))
        self._payload_total += int(payload_bits)
        self._header_total += int(header_bits)

    def record_block(self, block):
        self.record(
            block.user_id,
            block.iteration,
            block.layer_id,
            block.payload_bits,
            block.header_bits,
        )

    @property
    def payload_total(self):
        return self._payload_total

    @property
    def header_total(self):
        return self._header_total

    def total(self, include_headers=True):
        return self._payload_total + (self._header_total if include_headers else 0)

    def __len__(self):
        return len(self.records)
