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
from itertools import repeat
from typing import Iterable, List, Optional, Sequence, Tuple

from .posit import NAR, PositConfig, decode, round_scaled, scaled_fraction

__all__ = [
    "QuireConfig",
    "Quire",
    "Operand",
    "exact_dot",
    "operand",
    "prepare",
    "term_units",
    "product_units",
    "add_units",
    "drain",
]

# a prepared posit operand: (signed significand, scale), None for NaR
Operand = Optional[Tuple[int, int]]

# The widest quire in bits, over 32 times the widest in use (posit64 at es = 3,
# 2,016 bits): the width doubles with each step of es, and so would the memory.
MAX_WIDTH = 1 << 16


@dataclass(frozen=True)
class QuireConfig:
    """Accumulator geometry derived from a posit format."""

    posit: PositConfig
    carry_bits: int = 31

    def __post_init__(self) -> None:
        if self.carry_bits < 30:
            raise ValueError("carry_bits must be at least 30")
        # plain attributes and a hash computed once, as for PositConfig:
        # every product reads lsb_scale and every drain the carry bounds
        nbits, es = self.posit.nbits, self.posit.es
        total_width = ((nbits - 2) << (es + 2)) + 1 + self.carry_bits
        if total_width > MAX_WIDTH:
            raise ValueError(f"a posit({nbits},{es}) quire is {total_width} bits, past {MAX_WIDTH}")
        for name, value in (
            ("lsb_scale", -((nbits - 2) << (es + 1))),  # minpos squared
            ("total_width", total_width),
            ("max_int", (1 << (total_width - 1)) - 1),
            ("min_int", -(1 << (total_width - 1))),
            ("hex_digits", (total_width + 3) // 4),
            ("_hash", hash((self.posit, self.carry_bits))),
        ):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash


def operand(bits: int, cfg: PositConfig) -> Operand:
    """A pattern as the product rule reads it: its exact value as a
    ``(signed significand, scale)`` pair, or None for NaR."""
    d = decode(bits, cfg)
    return None if d.kind == NAR else (d.sign * d.significand, d.scale)


def prepare(values: Iterable[int], cfg: PositConfig) -> List[Operand]:
    """Decode each pattern once into its operand.

    A kernel prepares each operand vector once, so a matmul decodes
    2n^2 patterns rather than one pair per term.
    """
    return [operand(bits, cfg) for bits in values]


def term_units(a: Operand, b: Operand, lsb_scale: int) -> Optional[int]:
    """The product rule: the exact product of two prepared operands in
    units of ``2**lsb_scale``, None for NaR.

    The shift is never negative for the quire's ``lsb_scale``: the
    smallest odd-significand scale any finite posit can have is the
    minpos scale, and zero (significand 0, scale 0) sits above it, so a
    product's lowest set bit is at or above minpos squared.
    """
    if a is None or b is None:
        return None
    return (a[0] * b[0]) << (a[1] + b[1] - lsb_scale)


def product_units(a_bits: int, b_bits: int, qcfg: QuireConfig) -> Optional[int]:
    """Exact product of two posit patterns in accumulator units, None for NaR."""
    pcfg = qcfg.posit
    return term_units(operand(a_bits, pcfg), operand(b_bits, pcfg), qcfg.lsb_scale)


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
    px, py = prepare(xs, cfg.posit), prepare(ys, cfg.posit)
    # a NaR operand absorbs, so the sum runs only over finite operands
    if None in px or None in py:
        return drain(None, cfg)
    return drain(sum(map(term_units, px, py, repeat(cfg.lsb_scale))), cfg)
