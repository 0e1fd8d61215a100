"""Exact coefficient fields: odd prime fields F_p and the rationals.

Elements of F_p are plain Python ints in [0, p); rational elements are
`fractions.Fraction`.  All arithmetic is exact -- nothing in this package
ever touches floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction


class FieldError(ValueError):
    """Raised for invalid field configurations or non-invertible elements."""


class SpecError(ValueError):
    """Invalid ring specification, or malformed JSON input describing one."""


class InvariantError(AssertionError):
    """An internal consistency check failed: a bug, never bad input.

    Raised explicitly, so the check survives ``python -O``."""


_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def _parse_rational(s: str) -> Fraction:
    """An integer or a fraction a/b; nothing else (no decimals or exponents,
    whose expansion is unbounded), and no zero denominator."""
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise FieldError(f"cannot parse {s!r} as an integer or fraction")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise FieldError(f"zero denominator in {s!r}") from None


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def json_check(value, kind, name: str):
    """The parsed-JSON value itself if it is a `kind` (dict, list, str or int;
    a boolean is not an integer), else SpecError naming it."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SpecError(f"{name}: expected {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def json_item(data, key: str, kind, where: str = ""):
    """data[key] of parsed JSON, checked by `json_check`; SpecError naming
    where.key if data is not an object or lacks the key."""
    name = f"{where}.{key}" if where else key
    json_check(data, dict, where or "input")
    if key not in data:
        raise SpecError(f"{name}: missing")
    return json_check(data[key], kind, name)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """F_p for an odd prime p < 2^31, optionally with a square root of -1.

    The bound keeps a product of two residues below 2^62, which the int64
    linear algebra relies on.
    """

    kind = "prime-field"
    is_prime = True

    def __init__(self, p: int, imaginary_unit: int | None = None):
        if p >= 2**31:
            raise FieldError(f"{p} is too large: exact int64 arithmetic needs p < 2^31")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if p == 2:
            raise FieldError("characteristic 2 is not supported")
        self.p = p
        if imaginary_unit is not None:
            imaginary_unit %= p
            if (imaginary_unit * imaginary_unit + 1) % p != 0:
                raise FieldError(f"{imaginary_unit}^2 + 1 != 0 mod {p}")
        self.imaginary_unit = imaginary_unit

    zero = 0
    one = 1

    def coerce(self, v) -> int:
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return v.numerator % self.p
            return self.div(v.numerator % self.p, v.denominator % self.p)
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, s: str):
        return self.coerce(_parse_rational(s))

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return (
            isinstance(other, PrimeField)
            and other.p == self.p
            and other.imaginary_unit == self.imaginary_unit
        )

    def __hash__(self):
        return hash(("Fp", self.p, self.imaginary_unit))

    def __repr__(self):
        if self.imaginary_unit is None:
            return f"F{self.p}"
        return f"F{self.p}(i={self.imaginary_unit})"


class Rationals:
    """The field of rational numbers; elements are `Fraction`s."""

    kind = "rationals"
    is_prime = False
    imaginary_unit = None

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v) -> Fraction:
        return Fraction(v)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def parse(self, s: str):
        return _parse_rational(s)

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


def default_field() -> PrimeField:
    """F_13 with i = 5 (5^2 = 25 = -1 mod 13)."""
    return PrimeField(13, imaginary_unit=5)


def field_from_config(cfg: dict):
    """Build a field from its JSON configuration {kind, p?, i?}, the
    spec.field item of a factorization's JSON."""
    kind = json_item(cfg, "kind", str, "spec.field")
    if kind == "prime-field":
        i = cfg.get("i")
        return PrimeField(json_item(cfg, "p", int, "spec.field"),
                          None if i is None else json_check(i, int, "spec.field.i"))
    if kind == "rationals":
        return Rationals()
    raise FieldError(f"unknown field kind {kind!r}")


def field_to_config(field) -> dict:
    if isinstance(field, PrimeField):
        cfg = {"kind": "prime-field", "p": field.p}
        if field.imaginary_unit is not None:
            cfg["i"] = field.imaginary_unit
        return cfg
    return {"kind": "rationals"}


def parse_field_flag(s: str):
    """Parse a CLI field flag: 'fp:13', 'fp:13:i=5', or 'q'.

    P and I are plain decimal literals (int() alone would also take '1_3'
    and ' 13'); any other ':' part, or a second 'i=', is rejected.
    """
    s = s.strip().lower()
    if s in ("q", "qq", "rationals"):
        return Rationals()
    m = re.fullmatch(r"fp:([0-9]+)(?::i=([0-9]+))?", s)
    if m is None:
        raise FieldError(f"cannot parse field flag {s!r} (expected fp:P, fp:P:i=I or q)")
    p = int(m[1])
    i = int(m[2]) if m[2] is not None else 5 if p == 13 else None
    return PrimeField(p, i)
