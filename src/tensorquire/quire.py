"""Exact accumulation of posit products.

The quire is a wide fixed-point two's-complement accumulator whose
least significant bit weighs minpos squared, so the product of any two
posits is an exact integer multiple of the LSB and sums of such
products carry no rounding error at all.  Rounding happens exactly
once, when the accumulated value is converted back to a posit.

Because accumulation is exact integer addition, it is associative and
commutative in the bit-pattern sense: partial quires built by different
workers over different splits merge to the same accumulator, which is
what makes parallel reductions bitwise reproducible.  The carry bound
is judged only where the sum is read (the drain, ``value``, ``to_hex``),
so saturation to NaR depends on the final exact sum alone, never on the
grouping of partial sums.

Width budget: the value field spans minpos^2 .. maxpos^2, which is
4*(nbits-2)*2^es + 1 bits, plus carry headroom so that over two billion
worst-case products fit before overflow.  For es=2 with 31 carry bits
the total is exactly 16*nbits (a posit32 quire is 512 bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .posit import NAR, PositConfig, decode, round_scaled, scaled_fraction

__all__ = ["QuireConfig", "Quire", "exact_dot", "product_units", "add_units", "drain"]


@dataclass(frozen=True)
class QuireConfig:
    """Accumulator geometry derived from a posit format."""

    posit: PositConfig
    carry_bits: int = 31

    def __post_init__(self) -> None:
        if self.carry_bits < 30:
            raise ValueError("carry_bits must be at least 30")

    @property
    def lsb_scale(self) -> int:
        """Power-of-two weight of the accumulator LSB (minpos squared)."""
        return -((self.posit.nbits - 2) << (self.posit.es + 1))

    @property
    def total_width(self) -> int:
        return ((self.posit.nbits - 2) << (self.posit.es + 2)) + 1 + self.carry_bits

    @property
    def max_int(self) -> int:
        return (1 << (self.total_width - 1)) - 1

    @property
    def min_int(self) -> int:
        return -(1 << (self.total_width - 1))

    @property
    def hex_digits(self) -> int:
        return (self.total_width + 3) // 4


def product_units(a_bits: int, b_bits: int, qcfg: QuireConfig) -> Optional[int]:
    """Exact product of two posits in accumulator units, None for NaR.

    The shift below is never negative: the smallest odd-significand
    scale any finite posit can have is the minpos scale, and zero
    (significand 0, scale 0) sits above it, so a product's lowest set
    bit is at or above minpos squared.
    """
    pcfg = qcfg.posit
    da = decode(a_bits, pcfg)
    db = decode(b_bits, pcfg)
    if da.kind == NAR or db.kind == NAR:
        return None
    shift = da.scale + db.scale - qcfg.lsb_scale
    return (da.sign * db.sign) * (da.significand * db.significand) << shift


def add_units(acc: Optional[int], units: Optional[int]) -> Optional[int]:
    """Exact sum of two accumulator states; None (a NaR operand) absorbs.

    There is no range check here: the carry bound is judged once, on
    the final sum, so every grouping of the same terms agrees.
    """
    return None if acc is None or units is None else acc + units


def _is_nar(acc: Optional[int], qcfg: QuireConfig) -> bool:
    """A NaR operand was seen, or the exact sum exceeds the carry room."""
    return acc is None or not qcfg.min_int <= acc <= qcfg.max_int


def drain(acc: Optional[int], qcfg: QuireConfig) -> int:
    """Round an accumulator to a posit; the quire's single rounding."""
    if _is_nar(acc, qcfg):
        return qcfg.posit.nar_pattern
    return round_scaled(acc, qcfg.lsb_scale, qcfg.posit)


@dataclass(frozen=True)
class Quire:
    """Immutable accumulator state; every operation returns a new value.

    ``acc`` counts multiples of 2**lsb_scale exactly, or is None once a
    NaR operand has entered (sticky).  ``nar`` also holds when the
    exact sum is beyond the carry capacity; that depends only on the
    sum, never on the order of the terms.
    """

    config: QuireConfig
    acc: Optional[int] = 0

    @classmethod
    def zero(cls, cfg: QuireConfig) -> "Quire":
        return cls(cfg)

    @property
    def nar(self) -> bool:
        return _is_nar(self.acc, self.config)

    def fma(self, a_bits: int, b_bits: int) -> "Quire":
        """Add the exact product a*b; no rounding."""
        return Quire(self.config, add_units(self.acc, product_units(a_bits, b_bits, self.config)))

    def add(self, p_bits: int) -> "Quire":
        """Add the exact value of a single posit (p*1); no rounding."""
        one = 1 << (self.config.posit.nbits - 2)
        return self.fma(p_bits, one)

    def merge(self, other: "Quire") -> "Quire":
        """Exact addition of two accumulators (the parallel-join step)."""
        if self.config != other.config:
            raise ValueError("cannot merge quires with different configs")
        return Quire(self.config, add_units(self.acc, other.acc))

    def to_posit(self) -> int:
        """Round the accumulated value to a posit; the single rounding."""
        return drain(self.acc, self.config)

    @property
    def value(self) -> Fraction:
        if self.nar:
            raise ValueError("NaR quire has no rational value")
        return scaled_fraction(self.acc, self.config.lsb_scale)

    def to_hex(self) -> str:
        """Full accumulator as two's-complement hex ('NaR' when flagged)."""
        if self.nar:
            return "NaR"
        masked = self.acc & ((1 << self.config.total_width) - 1)
        return f"0x{masked:0{self.config.hex_digits}x}"

    @classmethod
    def from_hex(cls, text: str, cfg: QuireConfig) -> "Quire":
        t = text.strip()
        if t == "NaR":
            return cls(cfg, None)
        if not t.lower().startswith("0x"):
            raise ValueError(f"quire hex must start with 0x: {text!r}")
        bits = int(t[2:], 16)
        if bits >> cfg.total_width:
            raise ValueError(f"quire pattern wider than {cfg.total_width} bits")
        if bits >> (cfg.total_width - 1):
            bits -= 1 << cfg.total_width
        return cls(cfg, bits)


def exact_dot(xs: Sequence[int], ys: Sequence[int], cfg) -> int:
    """Dot product with a single rounding at the end.

    ``cfg`` may be a PositConfig (default quire geometry) or a
    QuireConfig.  Inputs are posit bit patterns.
    """
    if isinstance(cfg, PositConfig):
        cfg = QuireConfig(cfg)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    acc = 0
    for a, b in zip(xs, ys):
        acc = add_units(acc, product_units(a, b, cfg))
    return drain(acc, cfg)
