"""Exact coefficient fields: the rationals and prime fields GF(p).

Every computation in this package happens over one of these two fields.
There is no floating point anywhere.  A rational is a Python int when it
is integral and a normalized Fraction otherwise, never a float; almost
every scalar the engine meets is a small integer, so it stays on int
arithmetic until a division needs a Fraction.  GF(p) elements are ints
in range(p).
"""

from fractions import Fraction
from operator import index


class FieldError(ValueError):
    pass


def _is_prime(p):
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


def _rational(q):
    """A Fraction as an int when its denominator is 1."""
    return q.numerator if q.denominator == 1 else q


class Rationals:
    """The field Q: ints when integral, Fraction otherwise, never float.

    Every operation returns this normal form.  An int and a Fraction of
    equal value compare and hash equal and print alike, so the form
    never shows in keys or output.
    """

    characteristic = 0

    zero = 0
    one = 1

    def from_int(self, n):
        return index(n)

    def from_string(self, s):
        try:
            return _rational(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {s!r}") from exc

    def add(self, a, b):
        c = a + b
        return c if c.__class__ is int else _rational(c)

    def sub(self, a, b):
        c = a - b
        return c if c.__class__ is int else _rational(c)

    def mul(self, a, b):
        c = a * b
        return c if c.__class__ is int else _rational(c)

    def div(self, a, b):
        if a.__class__ is int and b.__class__ is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _rational(a / b)

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(1, a)

    def to_string(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """GF(p) with int scalars in range(p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def from_string(self, s):
        num, slash, den = s.partition("/")
        try:
            a, b = int(num), int(den) if slash else 1
        except ValueError as exc:
            raise FieldError(f"bad literal {s!r} for {self!r}") from exc
        if b % self.p == 0:
            raise FieldError(f"literal {s!r} divides by zero in {self!r}")
        return self.div(self.from_int(a), self.from_int(b))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return (a * pow(b, -1, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting zero in GF(p)")
        return pow(a, -1, self.p)

    def to_string(self, a):
        return str(a)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = Rationals()


def parse_field(text):
    """Parse a field tag: "Q" or "Fp:<p>"."""
    if not isinstance(text, str):
        raise FieldError(f"field tag {text!r} is not a string")
    text = text.strip()
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError as exc:
            raise FieldError(f"bad prime in field tag {text!r}") from exc
        return PrimeField(p)
    raise FieldError(f"unknown field tag {text!r} (expected \"Q\" or \"Fp:<p>\")")
