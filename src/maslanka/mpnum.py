"""Arbitrary-precision numeric kernel.

Every numeric operation in this package runs against a PrecisionContext whose
one field, ``target_bits``, is the accuracy promised to the caller; the
precision used internally, ``working_bits``, is derived from it as
``target_bits + GUARD_BITS``.  Operations that face catastrophic cancellation
derive their own precision instead: the alternating binomial sums computed in
:mod:`maslanka.coefficients` lose roughly ``k`` leading bits at index ``k``,
and :func:`required_bits_for_alternating_sum` quantifies that loss.

Exact rationals are ``fractions.Fraction``, and the hot loops (the
coefficient kernel, the series sum) work in Python integers at a fixed-point
scale.  Binary floats are mpmath's raw tuples (sign, man, exp, bc) of ints:
man odd (or the zero (0, 0, 0, 0)), bc its bit length, value
(-1)^sign man 2^exp; inf, -inf and nan are mpmath's special tuples with
man = 0 and a nonzero exp.  This module makes them without mpmath: _raw
rounds an integer times a power of two once, to nearest with ties to even,
as from_man_exp does; _ratio rounds a quotient of two sums of dyadic terms
once, however far apart their exponents, as mpf_div rounds one of exact
operands; and _sqrt and _to_float round as mpf_sqrt and to_float do, bit for
bit.  _to_mp is the one edge back to mpmath's mpf and mpc.
_least_prime_factors is the package's one sieve, under the logarithms of
:mod:`maslanka.analysis` and the powers n^-s of ``series.zeta_reference``.
Decimal I/O is one exact radix conversion each way, both on the bounds of
_scale10 (Brent & Zimmermann, Modern Computer Arithmetic, 2010, section
1.7): format_real prints x rounded to nearest at a given number of digits,
ties away from zero, and decimal_to_raw reads a decimal rounded to nearest
at a given number of bits, ties to even, at every magnitude; parse_decimal
reads a literal of one strict grammar through it, and format_nstr prints
in mpmath's nstr layout.  So the tables (raw tuples), ``maslanka eval``
(``series._eval_raw``) and the cross-checks of ``em-check`` and ``verify``
run without importing mpmath; the pi^2 of the table rows comes from
:mod:`maslanka.bernoulli`.  The functions that hand back mpmath
``mpf``/``mpc`` values (the series wrapper, the phik wrappers, the analysis)
import mpmath when they run; this module never does.  There is no interval
mode; error bounds are proven instead, in the docstrings of the table
entries' stored 2^e_k (:mod:`maslanka.coefficients`), ``maslanka_eval``,
``truncation_check``, ``em_remainder_a_k``, ``deriv_l1_norm`` and
``zeta_reference``.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "PoleError",
    "PrecisionContext",
    "decimal_to_raw",
    "format_nstr",
    "format_real",
    "parse_decimal",
    "required_bits_for_alternating_sum",
]

# Margin added on top of the cancellation-driven escalation: covers per-term
# rounding in sums of a few thousand terms with room to spare.
GUARD_BITS = 32


class PoleError(ArithmeticError):
    """An operation was evaluated at a pole of the underlying function.

    A numeric failure, so the CLI exits 3 on it, as on any ArithmeticError.
    """


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``.  An instance takes them
    positionally or by keyword, runs ``__post_init__`` (the subclass's
    validation, if any) and then refuses attribute assignment.  Equality,
    hash and repr follow the fields, and two records are equal only if their
    types are the same.  It stands in for a frozen dataclass: importing
    dataclasses (inspect with it) takes about 11 ms of every process.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if (len(args) + len(kwargs) != len(names)
                or not set(kwargs) <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


def required_bits_for_alternating_sum(k: int, target_bits: int) -> int:
    """Working precision that keeps an order-k alternating binomial sum accurate.

    The largest intermediate term of such a sum is below
    ``(2k+1) * zeta(2) * C(k, k//2) < 2**(k + log2(k) + 2)`` while the result can
    be arbitrarily small, so ``k + ceil(log2(k+2))`` leading bits are lost to
    cancellation.  Returns ``target_bits + k + ceil(log2(k+2)) + 32``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if target_bits < 1:
        raise ValueError("target_bits must be positive")
    return target_bits + k + (k + 1).bit_length() + GUARD_BITS


class PrecisionContext(Record):
    """Precision policy shared by all operations.

    ``target_bits`` is the accuracy promised to the caller; ``working_bits``,
    the precision used inside an operation, is ``target_bits + GUARD_BITS``.
    """

    __slots__ = ("target_bits",)
    target_bits: int

    def __post_init__(self) -> None:
        if self.target_bits < 16:
            raise ValueError("target_bits must be at least 16")

    @property
    def working_bits(self) -> int:
        return self.target_bits + GUARD_BITS


# -- binary floats and decimal conversion in integers -------------------------


def _raw(man: int, exp: int, bits: int = 0) -> tuple[int, int, int, int]:
    """The raw tuple of man * 2^exp, rounded to `bits` bits to nearest with ties
    to even (exact for bits=0): from_man_exp(man, exp, bits, round_nearest)."""
    sign = int(man < 0)
    man = abs(man)
    if not man:
        return (0, 0, 0, 0)
    n = man.bit_length() - bits
    if bits and n > 0:
        half = 1 << n - 1
        rest = man & (2 * half - 1)
        man >>= n
        exp += n
        if rest > half or rest == half and man & 1:
            man += 1
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (sign, man, exp + zeros, man.bit_length())


def _to_mp(re: tuple, im: tuple | None = None):
    """An mpf made from a raw tuple, or an mpc from two when im is not None."""
    from mpmath import mp

    return mp.make_mpf(re) if im is None else mp.make_mpc((re, im))


# mpmath's raw inf, -inf and nan (finf, fninf and fnan of mpmath.libmp)
_INF, _NINF, _NAN = (0, 0, -456, -2), (1, 0, -789, -3), (0, 0, -123, -1)


def _check_positive(x: tuple, name: str) -> None:
    """ValueError unless the raw tuple x is positive and finite, saying which it is not."""
    if x[0] or not x[1] and x != _INF:
        raise ValueError(f"{name} must be a positive number")
    if not x[1]:
        raise ValueError(f"{name} must be finite")


def _man(x: tuple) -> int:
    """The signed mantissa of a raw tuple."""
    return -x[1] if x[0] else x[1]


def _round(x: tuple, bits: int) -> tuple:
    """x rounded to `bits` bits as _raw rounds; inf and nan pass unchanged."""
    return _raw(_man(x), x[2], bits) if x[1] else x


def _fold(terms: list, p: int) -> tuple[int, int, bool]:
    """(n, e, exact) for at most 8 dyadic terms (m, x) = m 2^x, added exactly,
    largest leading bit first, until the rest lies more than p + 3 bits below
    the sum n 2^e, so below 2^-p |n 2^e|: then exact is False, n has the exact
    sum's sign and n 2^e is within 2^(1-p) of it relative."""
    if len(terms) == 1:
        return (*terms[0], True)
    n = e = 0
    for top, m, x in sorted([(x + abs(m).bit_length(), m, x) for m, x in terms if m], reverse=True):
        if not n:
            n, e = m, x
        elif top + p + 3 < e + abs(n).bit_length():
            return n, e, False
        elif x < e:
            n, e = (n << e - x) + m, x
        else:
            n += m << x - e
    return n, e, True


def _ratio(N: list, D: list, bits: int) -> tuple:
    """sum N / sum D for dyadic terms (m, x) = m 2^x, at most 8 in all, sum D
    > 0, correctly rounded to nearest at `bits` bits as mpmath's mpf_div
    rounds: f = floor(|N/D| 2^-k) of bits + 5 or 6 bits, doubled and plus 1
    if the division is inexact (a sticky bit), rounds as N/D does.  When a
    sum does not fold exactly (_fold), the folds put f within one of its
    value, and the exact signs of |N| - f 2^k D settle f and the remainder."""
    (n, ne, exact), (d, de, exact_d) = _fold(N, bits + 12), _fold(D, bits + 12)
    sign = -1 if n < 0 else 1
    sh = bits + 5 + d.bit_length() - abs(n).bit_length()
    k = ne - de - sh
    f, rest = divmod(abs(n) << max(sh, 0), d << max(-sh, 0))
    if not (exact and exact_d):
        def over(f):  # the sign of |N| - f 2^k D
            return _fold([(sign * m, x) for m, x in N] + [(-f * m, x + k) for m, x in D], 0)[0]

        f += (over(f + 1) >= 0) - (over(f) < 0)
        rest = over(f)
    return _raw(sign * (2 * f + bool(rest)), k - 1, bits)


def _sqrt(x: tuple, bits: int) -> tuple:
    """sqrt(x) for a finite raw x >= 0, correctly rounded to nearest at `bits`
    bits as mpmath's mpf_sqrt: the integer root of the mantissa at an even
    exponent, shifted to at least 2 bits + 4 bits, with a sticky last bit when
    the root is inexact (Brent & Zimmermann, section 3.5)."""
    _, man, exp, bc = x
    if not man:
        return x
    if exp & 1:
        man, exp, bc = man << 1, exp - 1, bc + 1
    shift = max(4, 2 * bits - bc + 4)
    shift += shift & 1
    root = math.isqrt(man << shift)
    if root * root != man << shift:
        root, shift = 2 * root + 1, shift + 2
    return _raw(root, (exp - shift) // 2, bits)


def _to_float(x: tuple) -> float:
    """float(x) for a finite raw tuple, as mpmath's to_float gives it: rounded
    to 53 bits to nearest, ties to even, then math.ldexp, which rounds again
    below the normal range; +-inf beyond the float range."""
    if x[3] > 53:
        x = _raw(_man(x), x[2], 53)
    try:
        return math.ldexp(_man(x), x[2])
    except OverflowError:
        return -math.inf if x[0] else math.inf


# log10(2) 2^128 rounded down
_LOG10_2 = 0x4D104D427DE7FBCC47C4ACD605BE48BC


def _scale10(man: int, k: int, t: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo 2^e <= man 10^k <= hi 2^e, for an integer man >= 0.

    10^|k| starts exact, as 10^(|k| >> j) with j = bitlength(10|k| // 3t),
    which fits in t bits, and takes the last j bits of |k| by binary powering
    with its lower end floored and its upper end ceiled to t bits after each
    step, so the two are within 2^(j+2-t) relative; 10^-|k| divides man,
    shifted to a quotient of at least t bits, by them.
    """
    n = abs(k)
    j = (10 * n // (3 * t)).bit_length()
    lo = hi = 10 ** (n >> j)
    e = 0
    for i in reversed(range(j)):
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if n >> i & 1:
            lo, hi = 10 * lo, 10 * hi
        sh = hi.bit_length() - t
        if sh > 0:
            lo, hi, e = lo >> sh, -(-hi >> sh), e + sh
    if k >= 0:
        return man * lo, man * hi, e
    s = max(0, t + hi.bit_length() - man.bit_length())
    return (man << s) // hi, -(-(man << s) // lo), -s - e


def _floor_digits(man: int, exp: int, n: int) -> tuple[int, int]:
    """(N, E) with N = floor(x 10^(n-1-E)) the first n decimal digits of
    x = man 2^exp > 0 rounded down, and E = floor(log10 x).

    E starts at floor(L log10 2), L = floor(log2 x), which is E or E - 1
    up to the rounding of log10 2, so most calls take one pass.  A guess
    more than one off moves by the digits the bounds show, which is within
    one of the truth while |exp| < 2^120 and closer each round beyond; one
    off, it moves by one.  When the bounds on N disagree, t grows until
    10^|k| is exact, where they meet.
    """
    top, t = 10 ** n, 4 * n + 64
    e10 = (man.bit_length() + exp - 1) * _LOG10_2 >> 128
    while True:
        k = n - 1 - e10
        lo, hi, e = _scale10(man, k, t + k.bit_length())
        e += exp
        off = ((lo.bit_length() + e - 1) * _LOG10_2 >> 128) - (n - 1)
        if abs(off) > 1:
            e10 += off
            continue
        a, b = (lo << e, hi << e) if e >= 0 else (lo >> -e, hi >> -e)
        if a >= top:
            e10 += 1
        elif 10 * b < top:
            e10 -= 1
        elif a == b:
            return a, e10
        else:
            t *= 2


def _round_digits(man: int, exp: int, digits: int) -> tuple[str, int]:
    """(m, E): x = man 2^exp > 0 rounded to nearest at `digits` digits, ties
    away from zero, as its digit string m and E = floor(log10) of the rounded
    value: the first digits + 1 digits of x rounded down, from _floor_digits,
    rounded half up at the last digit kept."""
    lead, e10 = _floor_digits(man, exp, digits + 1)
    lead = (lead + 5) // 10
    if lead == 10 ** digits:
        lead, e10 = lead // 10, e10 + 1
    return str(lead), e10


def format_real(x: tuple, digits: int) -> str:
    """Fixed-width scientific form <sign><d>.<d...>e<sign><exp> with `digits`
    digits, of the raw tuple x (an mpf's ``_mpf_``), rounded by _round_digits.

    It equals mpmath's to_str(x, digits, strip_zeros=False, min_fixed=1,
    max_fixed=0) except where x lies above a decimal tie by less than
    2^-bitprec |x|, bitprec = floor(3.32 (digits + 3)) + 10, since to_str
    first truncates x to bitprec bits, which can move such an x below the tie.
    """
    sign, man, exp, _ = x
    if not man:
        return "+0." + "0" * (digits - 1) + "e+0"
    m, e10 = _round_digits(man, exp, digits)
    return f"{'-' if sign else '+'}{m[0]}.{m[1:]}e{e10:+d}"


def format_nstr(x: tuple, digits: int) -> str:
    """mpmath's nstr(x, digits) of a finite raw tuple x: the digits of
    _round_digits, trailing zeros stripped, in fixed point when the exponent
    E has min(-(digits // 3), -5) < E < digits and as <d>.<d...>e<exp>
    otherwise, with format_real's one exception near a decimal tie."""
    sign, man, exp, _ = x
    if not man:
        return "0.0"
    m, e10 = _round_digits(man, exp, digits)
    split = 1
    if min(-(digits // 3), -5) < e10 < digits:
        if e10 < 0:
            m = "0" * -e10 + m
        else:
            m, split = m.ljust(e10 + 1, "0"), e10 + 1
        e10 = 0
    body = (m[:split] + "." + m[split:]).rstrip("0")
    body = ("-" if sign else "") + body + "0" * body.endswith(".")
    return f"{body}e{e10:+d}" if e10 else body


def _quotient(p: int, q: int, bits: int = 53) -> tuple:
    """p / q for integers, q > 0, correctly rounded to nearest at `bits`
    bits (mpmath's from_rational); 53 bits is mpmath's default precision."""
    return _ratio([(p, 0)], [(q, 0)], bits)


def _least_prime_factors(n: int) -> list[int]:
    """spf with spf[i] the least prime factor of i for 2 <= i <= n (spf[i] = i
    exactly when i is prime), by the sieve of Eratosthenes; spf[0:2] = [0, 1]."""
    spf = list(range(n + 1))
    for i in range(2, math.isqrt(n) + 1):
        if spf[i] == i:
            for c in range(i * i, n + 1, i):
                if spf[c] == c:
                    spf[c] = i
    return spf


def decimal_to_raw(man: int, e10: int, bits: int) -> tuple[int, int, int, int]:
    """The raw tuple of man 10^e10 rounded to nearest at `bits` bits, ties to
    even: mpmath's from_str(str(man) + "e" + str(e10), bits, round_nearest),
    in integers.

    The value lies within the bounds of _scale10; when both bounds round
    alike, so does the value, else t grows.  Bounds that are exact meet on
    an exact or tied value, so the loop ends, and an exponent of any size
    costs one powering of log2|e10| steps.  from_str rounds the same way up
    to |e10| = 400; beyond, it multiplies by a rounded power of ten, and this
    stays correctly rounded.
    """
    t = bits + 64 + e10.bit_length()
    while True:
        lo, hi, e = _scale10(abs(man), e10, t)
        raw = _raw(lo, e, bits)
        if raw == _raw(hi, e, bits):
            return (1, *raw[1:]) if man < 0 else raw
        t *= 2


def parse_decimal(text: str, bits: int) -> tuple[int, int, int, int]:
    """The raw tuple of a decimal literal, rounded to nearest at `bits` bits,
    ties to even (decimal_to_raw).

    The grammar is [+-]?(d+[.d*]|.d+)([eE][+-]?d+)? with digits 0-9, around
    optional whitespace; inf, +inf, -inf and nan, in any case, give mpmath's
    special tuples.  Anything else is a ValueError, also what mpmath's from_str
    would take: p/q, a trailing l, underscores, other scripts' digits.
    """
    t = text.strip()
    special = {"inf": _INF, "+inf": _INF, "-inf": _NINF, "nan": _NAN}.get(t.lower())
    if special:
        return special
    m = re.fullmatch(r"([+-]?)([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?", t)
    if m is None or not (m.group(2) or m.group(3)):
        raise ValueError(f"not a decimal number: {text!r}")
    sign, whole, frac, e10 = m.groups()
    frac = frac or ""
    return decimal_to_raw(int(sign + whole + frac), int(e10 or 0) - len(frac), bits)
