"""Pluggable arithmetic backends for the kernels.

Every backend exposes the same protocol: rounded scalar ops (mul, add,
sub, div), an accumulation protocol used by scheduled reductions
(accum_new / accum_term / accum_merge / accum_finish), and conversion
plumbing.  The ``roundings`` counter increments once per operation that
rounds, which is what the rounding-census properties measure:

  posit-quire    products are accumulated exactly; only accum_finish
                 rounds, so a dot of any length rounds exactly once
  posit-naive    every op rounds, accumulation is rounded adds
  binary32/64    IEEE semantics, every op rounds
  rational       exact Fractions, never rounds (the oracle)

Backend's own reduction is a fold of the backend's scalar ops, which
the naive, IEEE and rational backends use as is; the quire backend is
the one override.  Kernels pass each operand vector through
``prepare`` once before they build terms: the identity on every
backend but the quire, whose ``prepare`` decodes each pattern once
into a ``(signed significand, scale)`` pair (None for NaR).  Prepared
operands come in pairs, which the quire's ``accum_term`` folds as one
integer product and shift.  Both IEEE formats hold Python floats and
share one arithmetic: an op computes in binary64 and rounds once to
the target format, which for binary32 is the correctly rounded result
because 53 >= 2*24 + 2.

Input conversion (from_fraction) is an I/O boundary and deliberately
does not count as a kernel rounding.  Exception values (posit NaR,
IEEE NaN/inf, None for the rational backend) propagate through all
ops as values, never as Python errors.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional

from .posit import PositConfig, arith, decode, encode_round, format_bits, to_float
from .quire import QuireConfig, add_units, drain, operand, prepare, term_units

__all__ = [
    "Backend",
    "QuireBackend",
    "PositNaiveBackend",
    "Binary32Backend",
    "Binary64Backend",
    "RationalBackend",
    "make_backend",
    "BACKEND_NAMES",
]


# the empty accumulator of the default fold; not None, which is the
# rational backend's NaR
_EMPTY = object()


class Backend:
    """Shared counter plumbing and the default reduction; subclasses
    implement the arithmetic."""

    name: str = "abstract"
    # A power of two past the backend's finite range: every magnitude at
    # or above 2**range_scale converts like 2**range_scale, and every
    # nonzero one at or below 2**-range_scale like 2**-range_scale.
    # None for a backend without a range.
    range_scale: Optional[int] = None

    def __init__(self) -> None:
        self.roundings = 0

    def reset_counter(self) -> None:
        self.roundings = 0

    # -- scalar ops (must count one rounding each where rounding occurs)

    def mul(self, a, b):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    # -- accumulation protocol for scheduled reductions
    #
    # The default is a fold of the backend's own scalar ops.  A term's
    # factors multiply left to right and the product is added to the
    # running sum, so every step rounds once where the backend rounds.
    # The empty reduction finishes as ``zero()`` and a term with no
    # factors counts as ``one()``.

    def prepare(self, values):
        """Operand values as accum_term reads them fastest; a kernel
        calls this once per operand vector.  Prepared operands come in
        pairs; values as they are fit a term of any arity.  The default
        is the identity."""
        return values

    def accum_new(self):
        return _EMPTY

    def accum_term(self, acc, factors):
        """Fold one term (a tuple of factor values) into the accumulator."""
        if not factors:
            p = self.one()
        else:
            p = factors[0]
            for f in factors[1:]:
                p = self.mul(p, f)
        if acc is _EMPTY:
            return p
        return self.add(acc, p)

    def accum_merge(self, a, b):
        if a is _EMPTY:
            return b
        if b is _EMPTY:
            return a
        return self.add(a, b)

    def accum_finish(self, acc):
        return self.zero() if acc is _EMPTY else acc

    # -- conversions and predicates

    def from_fraction(self, x: Fraction):
        raise NotImplementedError

    def to_fraction(self, v) -> Optional[Fraction]:
        raise NotImplementedError

    def zero(self):
        return self.from_fraction(Fraction(0))

    def one(self):
        return self.from_fraction(Fraction(1))

    def is_zero(self, v) -> bool:
        raise NotImplementedError

    def is_exception(self, v) -> bool:
        raise NotImplementedError

    def to_hex(self, v) -> str:
        raise NotImplementedError

    def format_value(self, v) -> str:
        raise NotImplementedError


class PositNaiveBackend(Backend):
    """Posit scalars; values are bit patterns and every op rounds,
    reductions included."""

    def __init__(self, cfg: PositConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.range_scale = cfg.max_scale + 1  # saturates at maxpos / minpos
        self.name = f"posit-naive({cfg.nbits},{cfg.es})"

    def mul(self, a, b):
        self.roundings += 1
        return arith("mul", a, b, self.cfg)

    def add(self, a, b):
        self.roundings += 1
        return arith("add", a, b, self.cfg)

    def sub(self, a, b):
        self.roundings += 1
        return arith("sub", a, b, self.cfg)

    def div(self, a, b):
        self.roundings += 1
        return arith("div", a, b, self.cfg)

    def neg(self, a):
        # two's complement negation is exact, nothing rounds
        if a == self.cfg.nar_pattern:
            return a
        return (-a) & self.cfg.mask

    def from_fraction(self, x: Fraction):
        return encode_round(x, self.cfg)

    def one(self):
        # 0b01 followed by zeros is 1 at every width and es
        return 1 << (self.cfg.nbits - 2)

    def to_fraction(self, v) -> Optional[Fraction]:
        d = decode(v, self.cfg)
        if d.kind == "nar":
            return None
        return d.value

    def is_zero(self, v) -> bool:
        return v == 0

    def is_exception(self, v) -> bool:
        return v == self.cfg.nar_pattern

    def to_hex(self, v) -> str:
        return format_bits(v, self.cfg)

    def format_value(self, v) -> str:
        if v == self.cfg.nar_pattern:
            return "NaR"
        return repr(to_float(v, self.cfg, exact=False))


class QuireBackend(PositNaiveBackend):
    """The same posit scalars with exact quire reductions.

    ``prepare`` decodes each pattern once into a quire operand, a
    ``(signed significand, scale)`` pair or None for NaR, and
    ``accum_term`` folds a pair of operands into the exact integer sum
    by the quire's product rule; a pattern handed to it as it is gets
    prepared first.  Prepared operands come in pairs; a term of any
    other arity, in patterns, rounds each multiply before its last
    factor.  The accumulator is None after a NaR operand; apart from
    those multiplies only accum_finish rounds.
    """

    def __init__(self, cfg: PositConfig) -> None:
        super().__init__(cfg)
        self.qcfg = QuireConfig(cfg)
        self.name = f"posit-quire({cfg.nbits},{cfg.es})"

    def prepare(self, values):
        return prepare(values, self.cfg)

    def accum_new(self):
        return 0

    def accum_term(self, acc, factors):
        if acc is None:
            return None
        if len(factors) == 2:
            a, b = factors
        else:
            # any other arity: the rounded product of all but the last factor, then the last
            a = reduce(self.mul, factors[:-1]) if len(factors) > 1 else self.one()
            b = factors[-1] if factors else self.one()
        if a.__class__ is int:
            a = operand(a, self.cfg)
        if b.__class__ is int:
            b = operand(b, self.cfg)
        return add_units(acc, term_units(a, b, self.qcfg.lsb_scale))

    def accum_merge(self, a, b):
        return add_units(a, b)

    def accum_finish(self, acc):
        self.roundings += 1
        return drain(acc, self.qcfg)


class _IEEEBackend(Backend):
    """The arithmetic and conversions shared by the IEEE formats.

    Values are Python floats that the format represents exactly.  Each
    op computes in binary64 and rounds once with the subclass's
    ``from_float``.  For binary32 that double rounding gives the
    correctly rounded binary32 result of +, -, * and /, because
    binary64 carries 53 >= 2*24 + 2 significand bits (Figueroa, "When is
    double rounding innocuous?", SIGNUM 1995).  A subclass names its
    ``struct`` code and its ``from_float``; input goes exact -> binary64
    -> target format.
    """

    struct_code: str
    from_float: Callable[[float], float]
    # 2**1100 rounds to inf and 2**-1100 to zero in binary64 and binary32
    range_scale = 1100

    def _round(self, v: float) -> float:
        self.roundings += 1
        return self.from_float(v)

    def mul(self, a, b):
        return self._round(a * b)

    def add(self, a, b):
        return self._round(a + b)

    def sub(self, a, b):
        return self._round(a - b)

    def div(self, a, b):
        if b != 0.0:
            q = a / b
        elif a == 0.0 or math.isnan(a):
            # 0/0 and NaN/0 give the one quiet NaN of each format
            q = math.nan
        else:
            q = math.copysign(math.inf, a) * math.copysign(1.0, b)
        return self._round(q)

    def neg(self, a):
        return -a

    def from_fraction(self, x: Fraction):
        try:
            return self.from_float(float(x))
        except OverflowError:  # int / int rounds correctly: the nearest is inf
            return math.inf if x > 0 else -math.inf

    def to_fraction(self, v) -> Optional[Fraction]:
        return None if self.is_exception(v) else Fraction(v)

    def is_zero(self, v) -> bool:
        return v == 0.0

    def is_exception(self, v) -> bool:
        return math.isnan(v) or math.isinf(v)

    def to_hex(self, v) -> str:
        return "0x" + struct.pack(self.struct_code, v).hex()

    def format_value(self, v) -> str:
        return repr(v)


_F32 = struct.Struct("f")


class Binary32Backend(_IEEEBackend):
    """IEEE single precision: binary64 floats rounded through ``struct``."""

    name = "binary32"
    struct_code = ">f"

    @staticmethod
    def from_float(x: float) -> float:
        """The binary32 value nearest to x (ties to even), as a float."""
        try:
            return _F32.unpack(_F32.pack(x))[0]
        except OverflowError:
            # pack rejects a finite x that rounds past the largest binary32
            return math.copysign(math.inf, x)


class Binary64Backend(_IEEEBackend):
    """IEEE double precision via native Python floats."""

    name = "binary64"
    struct_code = ">d"
    from_float = staticmethod(float)


class RationalBackend(Backend):
    """Exact rationals; the oracle backend.  None stands in for NaR."""

    name = "rational-exact"

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return a * b

    def add(self, a, b):
        if a is None or b is None:
            return None
        return a + b

    def sub(self, a, b):
        if a is None or b is None:
            return None
        return a - b

    def div(self, a, b):
        if a is None or b is None or b == 0:
            return None
        return a / b

    def neg(self, a):
        return None if a is None else -a

    def from_fraction(self, x: Fraction):
        return Fraction(x)

    def to_fraction(self, v) -> Optional[Fraction]:
        return v

    def is_zero(self, v) -> bool:
        return v == 0

    def is_exception(self, v) -> bool:
        return v is None

    def to_hex(self, v) -> str:
        # rationals have no bit pattern; serialize the exact value
        return "NaR" if v is None else f"{v.numerator}/{v.denominator}"

    def format_value(self, v) -> str:
        if v is None:
            return "NaR"
        try:
            return repr(float(v))
        except OverflowError:
            return "inf" if v > 0 else "-inf"


BACKEND_NAMES = ("quire", "naive", "binary32", "binary64", "rational")


def make_backend(name: str, nbits: int = 32, es: int = 2) -> Backend:
    """Build a backend from its CLI name."""
    if name == "quire":
        return QuireBackend(PositConfig(nbits, es))
    if name == "naive":
        return PositNaiveBackend(PositConfig(nbits, es))
    if name == "binary32":
        return Binary32Backend()
    if name == "binary64":
        return Binary64Backend()
    if name == "rational":
        return RationalBackend()
    raise ValueError(f"unknown backend {name!r} (choose from {', '.join(BACKEND_NAMES)})")
