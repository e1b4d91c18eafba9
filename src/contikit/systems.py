"""Periodic coefficient systems for generalized continued fractions.

A system holds the period d, the partial numerators a_1..a_d, the partial
denominators b_1..b_d and the leading term b_0.  Coefficients for nu >= 1
repeat with period d; b_0 is special and only enters numerator-side
continuants.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal

from .errors import InvalidSystem, text

# JSON integers above this magnitude are serialized as decimal strings.
_JSON_INT_LIMIT = 2**53
# The strings int() reads in base 10; Decimal reads them to the same value, at any length.
_INT_SYNTAX = r"\s*[+-]?\d+(_\d+)*\s*"


@dataclass(frozen=True)
class PeriodicSystem:
    d: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    b0: int = 1
    strict: bool = True

    def __post_init__(self):
        a, b = _integers(self.a), _integers(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        _integer(self.b0, decimal=False)  # refuses a b0 that is not an int
        if _integer(self.d, decimal=False) < 1:
            raise InvalidSystem(f"period d must be >= 1, got {text(self.d)}")
        if len(a) != self.d or len(b) != self.d:
            raise InvalidSystem(f"need {text(self.d)} coefficients, "
                                f"got {text(len(a))} a's and {text(len(b))} b's")
        if 0 in a:
            raise InvalidSystem("partial numerators a_i must be nonzero")
        if self.strict and (min(a) < 1 or min(b) < 1):
            raise InvalidSystem("strict mode requires a_i >= 1 and b_i >= 1")

    def coeff_a(self, nu: int) -> int:
        """a_nu under the periodic lookup (valid for any integer nu)."""
        return self.a[(nu - 1) % self.d]

    def coeff_b(self, nu: int) -> int:
        """b_nu under the periodic lookup; b_0 is the stored leading term."""
        if nu == 0:
            return self.b0
        return self.b[(nu - 1) % self.d]

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        def enc(x: int):
            return x if abs(x) < _JSON_INT_LIMIT else text(x)

        return {
            "d": self.d,
            "a": [enc(x) for x in self.a],
            "b": [enc(x) for x in self.b],
            "b0": enc(self.b0),
            "strict": self.strict,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PeriodicSystem":
        """The inverse of to_dict; a document of any other shape raises InvalidSystem."""
        if not isinstance(obj, dict):
            raise InvalidSystem(f"a system must be a JSON object, got {type(obj).__name__}")
        missing = [key for key in ("d", "a", "b") if key not in obj]
        if missing:
            raise InvalidSystem(f"system is missing {', '.join(missing)}")
        if not all(isinstance(obj[key], (list, tuple)) for key in ("a", "b")):
            raise InvalidSystem("system entries a and b must be lists")
        if not isinstance(strict := obj.get("strict", True), bool):
            raise InvalidSystem(f"system entry strict must be true or false, got {strict!r}")
        return cls(
            d=_integer(obj["d"]),
            a=tuple(map(_integer, obj["a"])),
            b=tuple(map(_integer, obj["b"])),
            b0=_integer(obj.get("b0", 1)),
            strict=strict,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "PeriodicSystem":
        try:
            obj = json.loads(text, parse_int=_integer)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8, -16 or -32
            raise InvalidSystem(f"not a JSON document: {exc}") from None
        return cls.from_dict(obj)


def _integers(xs) -> tuple[int, ...]:
    """tuple(map(_integer, xs)), with no call per entry when every entry is exactly an int."""
    xs = tuple(xs)
    return xs if set(map(type, xs)) <= {int} else tuple(map(_integer, xs))


def _integer(x, decimal=True) -> int:
    """An int but not a bool, or if decimal the decimal string that to_dict writes for a large one,
    read past the int-string digit limit."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if decimal and isinstance(x, str) and re.fullmatch(_INT_SYNTAX, x):
        return int(Decimal(x))
    raise InvalidSystem(f"system entries must be integers, got {x!r}")


# The sqrt(8) convergent-denominator system, used as a worked example all over
# the test suite: B = 1, 1, 5, 6, 29, 35, 169, 204, 985, ...
S8 = PeriodicSystem(d=2, a=(1, 1), b=(1, 4), b0=2)

# (a_nu) = (b_nu) = (1) gives B_nu = F_{nu+1}, the Fibonacci numbers.
FIB = PeriodicSystem(d=1, a=(1,), b=(1,), b0=1)
