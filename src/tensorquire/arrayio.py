"""Array files and reports.

An array file is a small text format: a `shape` header, a `format`
line naming how values are written, then whitespace-separated
elements in row-major order.  Bit formats (posit32, posit16,
binary32, binary64) use 0x-prefixed hex patterns of fixed width, so a
file pins results down to the bit.  The decimal format takes exact
rational tokens ("1.5", "-2/3", "1e-7") and pays one rounding when
values enter a finite backend.

A decimal exponent is read before the token's value is built, because
the value of "1e999999999" is an integer of a billion digits.  Past
``DECIMAL_EXPONENT_LIMIT`` a token that lies beyond a finite backend's
range converts exactly as if it were read in full: posits saturate and
IEEE formats give a signed infinity or zero.  The rational backend has
no range, so it rejects such a token (a data error) rather than
approximate it.

A report is an ordered list of key=value lines.  Reports carry the
reproducibility contract to disk: for fixed inputs and flags the
rendered bytes are identical across runs, so reports can be diffed.
Numeric results print as a hex pattern plus a decimal rendering.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .posit import POSIT16, POSIT32, decode, parse_bits

__all__ = [
    "ArrayFormatError",
    "ArrayData",
    "ARRAY_FORMATS",
    "DECIMAL_EXPONENT_LIMIT",
    "parse_array",
    "parse_rational",
    "load_values",
    "exception_value",
    "Report",
]


class ArrayFormatError(ValueError):
    """Malformed array file or value that a backend cannot take."""


ARRAY_FORMATS = ("posit32", "posit16", "binary32", "binary64", "decimal")

_HEX_WIDTH = {"posit32": 8, "posit16": 4, "binary32": 8, "binary64": 16}
_POSIT_CFG = {"posit32": POSIT32, "posit16": POSIT16}


@dataclass(frozen=True)
class ArrayData:
    dims: Tuple[int, ...]
    fmt: str
    tokens: Tuple[str, ...]


def parse_array(text: str) -> ArrayData:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2:
        raise ArrayFormatError("array file needs shape and format lines")
    shape_line, fmt_line = lines[0].split(), lines[1].split()
    if shape_line[:1] != ["shape"] or len(shape_line) < 2:
        raise ArrayFormatError("first line must be `shape d0 d1 ...`")
    try:
        dims = tuple(int(d) for d in shape_line[1:])
    except ValueError:
        raise ArrayFormatError(f"bad shape line: {lines[0]!r}") from None
    if any(d < 1 for d in dims):
        raise ArrayFormatError("shape entries must be positive")
    if fmt_line[:1] != ["format"] or len(fmt_line) != 2:
        raise ArrayFormatError("second line must be `format <name>`")
    fmt = fmt_line[1]
    if fmt not in ARRAY_FORMATS:
        raise ArrayFormatError(f"unknown format {fmt!r}")
    tokens = tuple(tok for ln in lines[2:] for tok in ln.split())
    count = math.prod(dims)
    if len(tokens) != count:
        raise ArrayFormatError(f"shape wants {count} values, file has {len(tokens)}")
    width = _HEX_WIDTH.get(fmt)
    if width is not None:
        for tok in tokens:
            body = tok[2:] if tok[:2] in ("0x", "0X") else None
            if not body or len(body) != width or any(
                c not in "0123456789abcdefABCDEF" for c in body
            ):
                raise ArrayFormatError(
                    f"{fmt} wants 0x + {width} hex digits, got {tok!r}"
                )
    return ArrayData(dims, fmt, tokens)


# A decimal token is digits * 10**shift; past this |shift| its exact
# value is not built.  10**10000 is above 2**33000, beyond every IEEE
# format and every posit format with es <= 8.
DECIMAL_EXPONENT_LIMIT = 10_000

# the decimal literals ``Fraction`` accepts, with their parts named;
# ``re`` compiles it on first use, so an import that reads no decimal
# token does not pay for it
_DECIMAL = (
    r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<int>\d*|\d+(?:_\d+)*)"
    r"(?:\.(?P<frac>\d*|\d+(?:_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?\s*"
)


def parse_rational(tok: str, range_scale: Optional[int] = None) -> Optional[Fraction]:
    """The exact value of a decimal or fraction token, None if it is neither.

    ``range_scale`` describes the backend the value is for (see
    ``Backend.range_scale``): every magnitude at or above
    ``2**range_scale`` converts like ``2**range_scale`` and every nonzero
    one at or below its reciprocal like the reciprocal.  A token whose
    decimal shift is past ``DECIMAL_EXPONENT_LIMIT`` and whose magnitude
    lies beyond that range reads as the signed bound; any other such
    token raises ArrayFormatError, since its exact value is too large
    to build.
    """
    m = re.fullmatch(_DECIMAL, tok)
    if m is not None and m["exp"] is not None:
        frac = (m["frac"] or "").replace("_", "")
        digits = (m["int"].replace("_", "") + frac).lstrip("0")
        exp = m["exp"].replace("_", "")
        if not digits:
            return Fraction(0)
        if len(exp.lstrip("+-").lstrip("0")) > 30:
            # past any token's length, so it only needs its sign kept
            exp = "-1" + "0" * 30 if exp[0] == "-" else "1" + "0" * 30
        shift = int(exp) - len(frac)
        if abs(shift) > DECIMAL_EXPONENT_LIMIT:
            # the magnitude lies in [10**lo, 10**(lo + 1)), and for
            # lo >= 0 (or lo + 1 <= 0) 10**lo >= 2**(3*lo) (or <=)
            lo = len(digits) - 1 + shift
            sign = -1 if m["sign"] == "-" else 1
            if range_scale is not None and range_scale <= 3 * DECIMAL_EXPONENT_LIMIT:
                if 3 * lo >= range_scale:
                    return Fraction(sign << range_scale)
                if 3 * (lo + 1) <= -range_scale:
                    return Fraction(sign, 1 << range_scale)
            raise ArrayFormatError(
                f"decimal token {tok!r}: exponent past the limit of "
                f"{DECIMAL_EXPONENT_LIMIT} and not beyond the backend's range"
            )
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return None


def exception_value(backend):
    """The backend's non-value: NaR for posits, NaN for binary floats,
    the undefined marker for rationals.  0/0 lands there in each."""
    return backend.div(backend.zero(), backend.zero())


def _binary_token(fmt: str, tok: str) -> float:
    pattern = int(tok, 16)
    if fmt == "binary32":
        return float(struct.unpack(">f", pattern.to_bytes(4, "big"))[0])
    return struct.unpack(">d", pattern.to_bytes(8, "big"))[0]


def load_values(data: ArrayData, backend) -> List[object]:
    """Convert file tokens into backend values.

    Matching representations pass through bit-exactly; everything else
    goes through the exact rational value of the token and one
    encode rounding in the target backend.  Infinities have no home
    outside the binary backends and are rejected.
    """
    fmt = data.fmt
    out: List[object] = []
    if fmt in _POSIT_CFG:
        cfg = _POSIT_CFG[fmt]
        native = getattr(backend, "cfg", None) == cfg
        for tok in data.tokens:
            pattern = parse_bits(tok, cfg)
            if native:
                out.append(pattern)
                continue
            d = decode(pattern, cfg)
            if d is None:
                out.append(exception_value(backend))
            else:
                out.append(backend.from_fraction(d.value))
        return out
    if fmt in ("binary32", "binary64"):
        for tok in data.tokens:
            x = _binary_token(fmt, tok)
            if backend.name in ("binary32", "binary64"):
                out.append(backend.from_float(x))
                continue
            if math.isnan(x):
                out.append(exception_value(backend))
            elif math.isinf(x):
                raise ArrayFormatError(f"{backend.name} cannot take {tok} (infinite)")
            else:
                out.append(backend.from_fraction(Fraction(x)))
        return out
    # decimal
    for tok in data.tokens:
        if tok in ("NaR", "nan", "NaN"):
            out.append(exception_value(backend))
            continue
        val = parse_rational(tok, backend.range_scale)
        if val is None:
            raise ArrayFormatError(f"bad decimal token {tok!r}")
        out.append(backend.from_fraction(val))
    return out


class Report:
    """Ordered key=value lines, rendered byte-identically."""

    def __init__(self) -> None:
        self._lines: List[Tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        self._lines.append((key, str(value)))

    def add_value(self, key: str, backend, v) -> None:
        self.add(key, f"{backend.to_hex(v)} {backend.format_value(v)}")

    def add_vector(self, key: str, backend, values: Sequence[object]) -> None:
        for i, v in enumerate(values):
            self.add_value(f"{key}[{i}]", backend, v)

    def render(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self._lines)
