"""Bit-exact posit codec and arithmetic.

A posit bit pattern packs, after the sign bit, a unary run-length field
(the regime), an exponent field of fixed maximum width ``es``, and a
fraction with an implicit leading 1:

    sign | regime (variable) | exponent (up to es bits) | fraction

The regime run length scales the value by ``2**(2**es)`` per bit, so
precision tapers toward the extremes of the dynamic range.  Two patterns
are reserved: all zeros is exact zero and ``10...0`` is NaR ("Not a
Real"), the single exception value.  Negative values are the two's
complement of their positive counterpart, which makes numeric order
coincide with signed-integer order on the patterns.

All arithmetic here is exact-then-round: operands decode to exact
integers ``sig * 2**scale``, the operation is performed without error
(a quotient keeps a sticky bit for its remainder), and the result is
rounded once, by ``round_scaled``.  Rounding is to nearest, ties to the
pattern with even last bit, evaluated at the truncation point of the
(conceptually infinite) encoded bit string; magnitudes beyond the
dynamic range saturate at maxpos/minpos and never round to zero or NaR.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

__all__ = [
    "PositConfig",
    "DecodedReal",
    "POSIT8",
    "POSIT16",
    "POSIT32",
    "POSIT64",
    "decode",
    "encode_round",
    "round_scaled",
    "arith",
    "compare",
    "to_float",
    "from_float",
    "to_signed",
    "format_bits",
    "parse_bits",
    "scaled_fraction",
    "InexactConversion",
]

ZERO = "zero"
NAR = "nar"
FINITE = "finite"


class InexactConversion(ValueError):
    """A posit value does not fit the requested binary format exactly."""


@dataclass(frozen=True)
class PositConfig:
    """Width and exponent-field size of a posit format.

    ``es`` defaults to 2, the interchange value; other settings are kept
    for small exhaustively-testable formats.
    """

    nbits: int
    es: int = 2

    def __post_init__(self) -> None:
        if not 3 <= self.nbits <= 64:
            raise ValueError(f"nbits must be in 3..64, got {self.nbits}")
        if not 0 <= self.es <= self.nbits - 3:
            raise ValueError(f"es must be in 0..{self.nbits - 3}, got {self.es}")
        # The format constants are plain attributes, not properties, and
        # the hash is computed once: the codec reads them on every call
        # and the decode memo hashes the config on every lookup.
        n = self.nbits
        max_scale = (n - 2) << self.es  # power-of-two exponent of maxpos
        for name, value in (
            ("mask", (1 << n) - 1),
            ("nar_pattern", 1 << (n - 1)),
            ("maxpos_pattern", (1 << (n - 1)) - 1),
            ("minpos_pattern", 1),
            ("max_scale", max_scale),
            ("min_scale", -max_scale),
            ("hex_digits", (n + 3) // 4),
            ("_hash", hash((n, self.es))),
        ):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash


POSIT8 = PositConfig(8)
POSIT16 = PositConfig(16)
POSIT32 = PositConfig(32)
POSIT64 = PositConfig(64)


def scaled_fraction(v: int, scale: int) -> Fraction:
    """Exact value of ``v * 2**scale``."""
    return Fraction(v << scale) if scale >= 0 else Fraction(v, 1 << -scale)


class DecodedReal(NamedTuple):
    """Exact value of a pattern: ``sign * significand * 2**scale``.

    ``significand`` is odd for finite nonzero values, so the triple is
    canonical; zero has significand 0, so the product is its value too.
    ``kind`` is one of "zero", "nar", "finite"; sign is +1 or -1.
    """

    kind: str
    sign: int = 1
    scale: int = 0
    significand: int = 0

    @property
    def value(self) -> Fraction:
        if self.kind == NAR:
            raise ValueError("NaR has no rational value")
        return scaled_fraction(self.sign * self.significand, self.scale)


_DECODED_ZERO = DecodedReal(ZERO)
_DECODED_NAR = DecodedReal(NAR)


@functools.lru_cache(maxsize=1 << 13)
def decode(bits: int, cfg: PositConfig) -> DecodedReal:
    """Decode a bit pattern to its exact value (every pattern decodes).

    An LRU memo of 8,192 entries keeps a stream of distinct patterns from
    growing the process.  Kernels decode each operand once per call, so
    what the memo serves is reuse across calls and the rounded scalar
    ops.  8,192 is the smallest power of two that holds each benchmark
    workload's reuse set: a dot pair of 3,000 posit32 terms is read by
    ``exact_dot`` and then by three ``run_dot`` calls, so its 6,000
    patterns hit on 3 reads of 4 (4,096 entries keep 34%, not 75%).
    On n=16 matmuls under all five backends, mostly the naive backend's
    rounded products and partial sums, it keeps 93% of an unbounded
    memo's hits; 16,384 entries would keep them all, at twice the size.
    """
    n = cfg.nbits
    if bits >> n:
        raise ValueError(f"pattern 0x{bits:x} wider than {n} bits")
    if bits == 0:
        return _DECODED_ZERO
    if bits == cfg.nar_pattern:
        return _DECODED_NAR
    sign = 1
    mag = bits
    if bits >> (n - 1):
        sign = -1
        mag = (-bits) & cfg.mask
    # mag now has a clear sign bit; the low n-1 bits are the tail.
    # The regime run ends at the leading one of mag (a run of zeros) or
    # of its complement within the tail (a run of ones).
    tail_width = n - 1
    if mag >> (tail_width - 1):
        run = tail_width - (((1 << tail_width) - 1) ^ mag).bit_length()
        k = run - 1
    else:
        run = tail_width - mag.bit_length()
        k = -run
    rem = max(tail_width - run - 1, 0)  # bits after the regime terminator
    rem_bits = mag & ((1 << rem) - 1)
    t = min(cfg.es, rem)
    # When the exponent field is cut off, the present bits are its
    # most significant bits and the missing ones read as zero.
    e = (rem_bits >> (rem - t)) << (cfg.es - t)
    frac_width = rem - t
    frac = rem_bits & ((1 << frac_width) - 1)
    sig = (1 << frac_width) | frac
    # Canonicalize: shift out the trailing zeros to keep the significand odd.
    tz = (sig & -sig).bit_length() - 1
    scale = (k << cfg.es) + e - frac_width + tz
    return DecodedReal(FINITE, sign, scale, sig >> tz)


def round_scaled(v: int, scale: int, cfg: PositConfig) -> int:
    """Round the exact value ``v * 2**scale`` to the nearest pattern.

    ``v`` is a signed integer.  Ties go to the pattern with even last
    bit.  Magnitudes above maxpos return maxpos, nonzero magnitudes
    below minpos return minpos, and zero returns the zero pattern.
    """
    if v == 0:
        return 0
    m = abs(v) << cfg.nbits  # nbits zero bits keep the guard bit inside m
    top = m.bit_length() - 1
    L = top - cfg.nbits + scale  # floor(log2 |value|)
    if L >= cfg.max_scale:
        p = cfg.maxpos_pattern
    elif L < cfg.min_scale:
        p = cfg.minpos_pattern
    else:
        es = cfg.es
        k = L >> es
        if k >= 0:
            run = k + 1
            regime = ((1 << run) - 1) << 1  # run ones then the 0 terminator
        else:
            run = -k
            regime = 1  # run zeros then the 1 terminator
        avail = cfg.nbits - 2 - run  # bits left for exponent + fraction

        # The exponent bits followed by the fraction bits of m below its
        # leading one: the encoded bit string after the regime, whole.
        body = ((L & ((1 << es) - 1)) << top) | (m ^ (1 << top))
        drop = es + top - avail  # at least es + 3, given the padding
        p = (regime << avail) | (body >> drop)
        guard = (body >> (drop - 1)) & 1
        if guard and (body & ((1 << (drop - 1)) - 1) or p & 1):
            p += 1
    if v < 0:
        p = (-p) & cfg.mask
    return p


def _round_quotient(num: int, den: int, scale: int, cfg: PositConfig) -> int:
    """Round ``num / den * 2**scale`` (``den`` > 0) to the nearest pattern.

    The integer quotient keeps at least nbits + 1 bits, more than the
    kept bits plus the guard bit of any pattern, so a nonzero remainder
    ORed into its last bit acts only as the sticky bit.
    """
    shift = max(0, cfg.nbits + 1 + den.bit_length() - num.bit_length())
    q, r = divmod(abs(num) << shift, den)
    if r:
        q |= 1
    return round_scaled(-q if num < 0 else q, scale - shift, cfg)


def encode_round(x: Union[Fraction, int], cfg: PositConfig) -> int:
    """Round an exact rational to the nearest pattern of ``cfg``.

    Ties go to the pattern with even last bit.  Magnitudes above maxpos
    return maxpos, nonzero magnitudes below minpos return minpos; zero
    maps to its reserved pattern.
    """
    return _round_quotient(x.numerator, x.denominator, 0, cfg)


def arith(op: str, a: int, b: int, cfg: PositConfig) -> int:
    """Exact-then-rounded add/sub/mul/div on bit patterns.

    NaR absorbs: if either operand is NaR, or the divisor is zero, the
    result is NaR.  There is no error path; NaR is a value.
    """
    da = decode(a, cfg)
    db = decode(b, cfg)
    if da.kind == NAR or db.kind == NAR:
        return cfg.nar_pattern

    va = da.sign * da.significand
    vb = db.sign * db.significand
    if op == "add" or op == "sub":
        if op == "sub":
            vb = -vb
        # Align both operands to the smaller scale; the sum is exact.
        scale = min(da.scale, db.scale)
        return round_scaled((va << (da.scale - scale)) + (vb << (db.scale - scale)), scale, cfg)
    if op == "mul":
        return round_scaled(va * vb, da.scale + db.scale, cfg)
    if op == "div":
        if vb == 0:
            return cfg.nar_pattern
        return _round_quotient(va * db.sign, db.significand, da.scale - db.scale, cfg)
    raise ValueError(f"unknown op {op!r}")


def to_signed(bits: int, cfg: PositConfig) -> int:
    """Reinterpret a pattern as a signed two's-complement integer."""
    if bits >> (cfg.nbits - 1):
        return bits - (1 << cfg.nbits)
    return bits


def compare(a: int, b: int, cfg: PositConfig) -> str:
    """Order two patterns: 'lt', 'eq', 'gt', or 'unordered' (NaR)."""
    if a == cfg.nar_pattern or b == cfg.nar_pattern:
        return "unordered"
    sa = to_signed(a, cfg)
    sb = to_signed(b, cfg)
    if sa < sb:
        return "lt"
    if sa > sb:
        return "gt"
    return "eq"


def to_float(bits: int, cfg: PositConfig, exact: bool = True) -> float:
    """Convert to binary64.

    With ``exact=True`` (the default) an InexactConversion is raised if
    the value does not fit binary64 without rounding; pass
    ``exact=False`` to accept the nearest double instead.
    """
    d = decode(bits, cfg)
    if d.kind == NAR:
        return float("nan")
    if d.significand.bit_length() <= 53:
        return math.ldexp(d.sign * d.significand, d.scale)
    if exact:
        raise InexactConversion(
            f"pattern {format_bits(bits, cfg)} needs {d.significand.bit_length()} significand bits"
        )
    return float(d.value)


def from_float(x: float, cfg: PositConfig) -> int:
    """Round a binary64 value to a posit (NaN and infinities give NaR)."""
    if math.isnan(x) or math.isinf(x):
        return cfg.nar_pattern
    if x == 0.0:
        return 0
    return encode_round(Fraction(x), cfg)


def format_bits(bits: int, cfg: PositConfig) -> str:
    """Lowercase hex with 0x prefix, zero-padded to the pattern width."""
    return f"0x{bits:0{cfg.hex_digits}x}"


def parse_bits(text: str, cfg: PositConfig) -> int:
    """Parse a hex pattern, enforcing the exact digit count for cfg."""
    t = text.strip().lower()
    if not t.startswith("0x"):
        raise ValueError(f"bit pattern must start with 0x: {text!r}")
    digits = t[2:]
    if len(digits) != cfg.hex_digits:
        raise ValueError(
            f"expected {cfg.hex_digits} hex digits for {cfg.nbits}-bit patterns, got {text!r}"
        )
    if any(c not in "0123456789abcdef" for c in digits):
        raise ValueError(f"bad hex digit in {text!r}")
    bits = int(digits, 16)
    if bits >> cfg.nbits:
        raise ValueError(f"pattern {text!r} does not fit {cfg.nbits} bits")
    return bits
