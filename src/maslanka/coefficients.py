"""Maslanka coefficients A_k, the RH-criterion sequence b_k, and a disk cache.

    A_k = sum_{j=0}^{k} (-1)^j C(k,j) (2j+1) zeta(2j+2)
    b_k = sum_{j=0}^{k} (-1)^j C(k,j) / zeta(2j+2)

Both are k-th finite differences of a row w_j ((2j+1) zeta(2j+2) for A,
1/zeta(2j+2) for b), and both cancel catastrophically: terms grow like
C(k, k/2) ~ 2^k while the result shrinks faster than any power of k.  A table
is therefore one transform in exact integer arithmetic:

1. Fixed-point row.  W = required_bits_for_alternating_sum(k_max, target_bits)
   is fixed once per table and r_j = round(w_j * 2^W) is built as Python ints
   (_fixed_row), each within 1/2 + 2^-32 of w_j * 2^W, from zeta(2j+2) at a
   few more bits.  Up to the switch point m^(m-1) (m-1) > 2^prec, m = 2j+2,
   that is bernoulli._zeta_row at scale 2^prec, q(m) from exact Bernoulli
   numbers times one fixed-point power of pi^2 per m; from it on, the Dirichlet
   sum of floor(2^prec / n^m) over n <= N(m), for every m in one pass over n:
   u = floor(2^prec / n^(m-1)) steps to the next m by u //= n^2, the term is
   u // n, and n is the last one for m exactly when u < m - 1.
2. Transform.  k_max rounds of the difference d_j <- d_j - d_{j+1} over that
   one row.  After round k the head d_0 is exactly sum_j (-1)^j C(k,j) r_j, so
   its only error is the row rounding, below 2^k * (1/2 + 2^-32) units of
   2^-W.  Each head is rounded once, to target_bits.

Every route runs the rounds of step 2.  a_k and b_k return unrounded the last
head over the row built at W(k).  a_k_alt reindexes the sum over its own row
of zeta(2j+2), the same walk at scale 2^W for every j; it and
phik.em_remainder_a_k are the independent routes the tests compare against.
cross_identity_pairs reads both a_k routes' heads for k = 1..k_max from one
pass each at W(k_max).

Entry k of a table stores the least integer e_k with

    2^e_k >= 2^(exp + bc - target_bits - 1) + 2^(k - W - 1) (1 + 2^-30),

half an ulp of the rounded value (exponent exp, bit count bc) plus the row
rounding of step 2 with room to spare, so |value - true| <= 2^e_k.
Consumers read it through CoefficientTable.error_bound.

Everything on the table path is Python integers, so building, saving and
loading a table never imports mpmath.  An entry is stored as mpmath's own raw
tuple (sign, man, exp, bc) of ints, rounded by mpnum._raw, and the decimal
tokens of the cache come from mpnum too; the zeta walk and its pi^2 are
bernoulli's.  Only the routes that hand back mpf values (a_k, b_k, a_k_alt,
CoefficientTable.values and error_bound) import mpmath, inside the call.
"""

from __future__ import annotations

import re
from itertools import pairwise
from operator import sub

# CPython's built-in SHA-256, as the random module uses its built-in SHA-512:
# importing hashlib maps OpenSSL, about 3.5 MB resident, for one digest per file.
try:
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed it; a build without it keeps hashlib's
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .bernoulli import _zeta_row
from .mpnum import (GUARD_BITS, PrecisionContext, Record, _raw, _to_mp, decimal_to_raw,
                    format_real, required_bits_for_alternating_sum)

__all__ = [
    "CoefficientTable",
    "TableFormatError",
    "a_k",
    "a_k_alt",
    "b_k",
    "build_table",
    "cross_identity_pairs",
    "format_real",
    "load_table",
    "mantissa_digits",
    "parse_real",
    "save_table",
]

FORMAT_MAGIC = "MASLANKA-COEFF v2"

# The canonical decimal form str(n) of a non-negative and of any integer n.
_NAT = "(?:0|[1-9][0-9]*)"
_INT = "(?:0|-?[1-9][0-9]*)"

KINDS = ("A", "b")


class TableFormatError(ValueError):
    """Raised when a coefficient cache file violates format v2."""


class _ValuesView(Record):
    """The slots in which a CoefficientTable keeps its views; not fields."""

    __slots__ = ("_values", "_weights")

    def _kept(self, slot: str, make) -> tuple:
        try:
            return getattr(self, slot)
        except AttributeError:
            object.__setattr__(self, slot, make())
            return getattr(self, slot)


class CoefficientTable(_ValuesView):
    """Precision-stamped coefficient values A_0..A_k_max or b_0..b_k_max.

    ``raw[k]`` is entry k as mpmath's raw tuple (sign, man, exp, bc) of ints,
    rounded to exactly ``target_bits`` (which is what makes the cache
    round-trip bit-exact), and ``error_bound_exponents[k]`` is an integer e
    with |entry k - true| <= 2**e (the model of the module docstring, for
    tables from build_table).  ``values`` and ``weights`` are the same
    entries as mpf and as the Pochhammer sweep's weights, made on first use
    and kept.
    """

    __slots__ = ("kind", "k_max", "target_bits", "raw", "error_bound_exponents")
    kind: str
    k_max: int
    target_bits: int
    raw: tuple[tuple[int, int, int, int], ...]
    error_bound_exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if len(self.raw) != self.k_max + 1:
            raise ValueError("raw length must be k_max + 1")
        if len(self.error_bound_exponents) != self.k_max + 1:
            raise ValueError("error_bound_exponents length must be k_max + 1")

    @property
    def values(self) -> tuple:
        """The entries as mpmath mpf, in order."""
        return self._kept("_values", lambda: tuple(map(_to_mp, self.raw)))

    @property
    def weights(self) -> tuple:
        """Each entry (-1)^sign man 2^exp as the pair (+-man 2^max(exp, 0),
        max(-exp, 0)) that ``pochhammer._fixed_terms`` takes."""
        return self._kept("_weights", lambda: tuple(
            ((-m if sign else m) << max(exp, 0), max(-exp, 0)) for sign, m, exp, _ in self.raw))

    def error_bound(self, k: int):
        """2^e_k as an mpf."""
        return _to_mp((0, 1, self.error_bound_exponents[k], 1))


# -- fixed-point zeta row ------------------------------------------------------


def _row_prec(w: int) -> int:
    """Bits of the intermediate fixed-point zeta values for a row at scale 2^w.

    Every zeta(m) of the row (m = 2j+2 <= 2w) comes out within m units of
    2^-prec and every w_j within m^2 < 2^(2 * bitlength(2w)) units, so the
    extra bits leave less than 2^-GUARD_BITS of a unit at scale 2^w before
    the final rounding.
    """
    return w + GUARD_BITS + 2 * (2 * w).bit_length()


def _dirichlet_sums(lo: int, hi: int, prec: int) -> list[int]:
    """zeta(m) * 2^prec as integers for even m = lo..hi, each within m units.

    Each is the Dirichlet sum sum_{n<=N(m)} floor(2^prec / n^m), with N(m) the
    least n >= 2 such that n^(1-m) / (m-1) < 2^-prec.  Since sum_{n>N} n^-m <=
    int_N^inf x^-m dx = N^(1-m) / (m-1), the tail is below one unit and the
    N - 1 floors lose less than N - 1 more.  One pass over n serves every m:
    since floor(floor(a/b)/c) = floor(a/(bc)), u = floor(2^prec / n^(m-1))
    starts with one power at m = lo and steps to m + 2 by u //= n^2, the term
    is u // n, and N(m) = n exactly when u < m - 1.  N(m) falls with m, so the
    m still summing at n are a prefix of lo..hi; the pass ends when it is empty.
    """
    one = 1 << prec
    sums = [one] * ((hi - lo) // 2 + 1)
    live, n = len(sums), 1
    while live:
        n += 1
        u, n2, keep = one // n ** (lo - 1), n * n, 0
        for i in range(live):
            sums[i] += u // n
            keep += u >= lo + 2 * i - 1
            u //= n2
        live = keep
    return sums


def _zeta_fixed_row(n: int, prec: int) -> list[int]:
    """zeta(m) * 2^prec as integers for m = 2, 4, ..., 2n, each within m units.

    The Dirichlet sums serve from the switch point where N(m) <= m, i.e.
    m^(m-1) (m-1) > 2^prec, on; the test is monotone in m, so one walk finds it.
    Below it the walk of _zeta_row at scale 2^prec, whose Bernoulli numbers
    are cheap there.
    """
    lo = 2
    while lo <= 2 * n and lo ** (lo - 1) * (lo - 1) <= 1 << prec:
        lo += 2
    return _zeta_row(lo // 2 - 1, prec) + _dirichlet_sums(lo, 2 * n, prec)


def _row_entry(kind: str, j: int, zeta: int, prec: int, w: int) -> int:
    """r_j = round(w_j * 2^w) from zeta ~ zeta(2j+2) * 2^prec (1/zeta by integer division)."""
    v = (2 * j + 1) * zeta if kind == "A" else (1 << 2 * prec) // zeta
    shift = prec - w
    return (v + (1 << (shift - 1))) >> shift


def _fixed_row(kind: str, n: int, w: int) -> list[int]:
    """r_0..r_{n-1}, each within 1/2 + 2^-GUARD_BITS of w_j * 2^w (needs n <= w)."""
    prec = _row_prec(w)
    return [_row_entry(kind, j, z, prec, w) for j, z in enumerate(_zeta_fixed_row(n, prec))]


def _difference_heads(d: list[int]):
    """Head sum_j (-1)^j C(k,j) d_j after round k = 0..len(d)-1 of d_j <- d_j - d_{j+1}."""
    yield d[0]
    while len(d) > 1:
        d = list(map(sub, d, d[1:]))
        yield d[0]


def _alt_heads(k_max: int, w: int):
    """D_0 - (2k+1) D_1 for k = 1..k_max, D_i = sum_j (-1)^j C(k-1,j) z_{i+j} over
    _zeta_row z; D_1 of round k - 1 is its head minus the head of round k."""
    heads = pairwise(_difference_heads(_zeta_row(k_max + 1, w)))
    return (h0 - (2 * k + 1) * (h0 - h1) for k, (h0, h1) in enumerate(heads, 1))


# -- coefficients ----------------------------------------------------------------


def _single_index(kind: str, k: int, ctx: PrecisionContext) -> tuple:
    """Entry k as the exact raw tuple of the last head over its own row at
    W(k): kind "A" or "b" by the defining sum, "alt" by a_k_alt's reindexed one."""
    least = 1 if kind == "alt" else 0
    if k < least:
        raise ValueError(f"k must be >= {least}")
    w = required_bits_for_alternating_sum(k, ctx.target_bits)
    heads = _alt_heads(k, w) if kind == "alt" else _difference_heads(_fixed_row(kind, k + 1, w))
    *_, head = heads
    return _raw(head, -w)


def a_k(k: int, ctx: PrecisionContext):
    """A_k by the defining alternating sum, the last head over the row built at W(k).

    The result is unrounded; its error is the row rounding, below
    2^(k - W(k) - 1) * (1 + 2^-31).
    """
    return _to_mp(_single_index("A", k, ctx))


def b_k(k: int, ctx: PrecisionContext):
    """b_k = sum_j (-1)^j C(k,j)/zeta(2j+2), by the same rounds as a_k."""
    return _to_mp(_single_index("b", k, ctx))


def a_k_alt(k: int, ctx: PrecisionContext):
    """A_k by the reindexed sum over C(k-1, j), an independent cross-identity.

        sum_{j=0}^{k-1} (-1)^j C(k-1,j) (zeta(2j+2) - (2k+1) zeta(2j+4))

    That is D_0 - (2k+1) D_1 of _alt_heads over its own row z_j ~ zeta(2j+2) 2^W,
    W = W(k), from exact Bernoulli numbers.  Each z_j is within 1/2 + 2^-32 units
    and each difference adds up 2^(k-1) of them, so the unrounded result obeys
    |a_k_alt(k) - A_k| <= (k+1) 2^(k-W) (1/2 + 2^-32).
    """
    return _to_mp(_single_index("alt", k, ctx))


def cross_identity_pairs(k_max: int, ctx: PrecisionContext):
    """(k, head by a_k's route, head by a_k_alt's route): A_k 2^W as integers for
    k = 1..k_max, one pass over each route's row at W = W(k_max).  Their
    bounds with that W put the two within (k+2)(1 + 2^-31) 2^(k-1) units."""
    w = required_bits_for_alternating_sum(k_max, ctx.target_bits)
    kernel = _difference_heads(_fixed_row("A", k_max + 1, w))
    next(kernel)
    for k, heads in enumerate(zip(kernel, _alt_heads(k_max, w)), 1):
        yield k, *heads


def _bound_exponent(x: tuple, k: int, w: int, t: int) -> int:
    """Least e with 2^e >= 2^(exp + bc - t - 1) + 2^(k - w - 1) (1 + 2^-30), in integers."""
    _, _, exp, bc = x
    terms = (exp + bc - t - 1, k - w - 1, k - w - 31)
    low = min(terms)
    n = sum(1 << e - low for e in terms)
    return low + (n - 1).bit_length()


def build_table(kind: str, k_max: int, ctx: PrecisionContext) -> CoefficientTable:
    """Fully populated CoefficientTable for k = 0..k_max.

    One fixed-point row at W(k_max) and k_max rounds of exact differences over
    it; each head is rounded once to the target and stored with the bound of
    the module docstring.  The working set is that one row of k_max + 1
    integers of about W(k_max) bits.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    w = required_bits_for_alternating_sum(k_max, ctx.target_bits)
    raw = [_raw(head, -w, ctx.target_bits)
           for head in _difference_heads(_fixed_row(kind, k_max + 1, w))]
    return CoefficientTable(
        kind=kind,
        k_max=k_max,
        target_bits=ctx.target_bits,
        raw=tuple(raw),
        error_bound_exponents=tuple(
            _bound_exponent(v, k, w, ctx.target_bits) for k, v in enumerate(raw)),
    )


# ---------------------------------------------------------------------------
# Cache format v2 (text; v1 had the same layout but stored a bound that left
# out the final rounding, so v1 files are refused):
#   line 1: MASLANKA-COEFF v2
#   line 2: kind=<A|b> kmax=<int> target_bits=<int>
#   line 3: sha256=<hex over the payload lines>
#   then one line per k:  <k> <sign><mantissa>e<exponent> <error_bound_exponent>
# The mantissa carries ceil(target_bits * 0.302) + 2 decimal digits, enough to
# identify a target_bits-bit binary float uniquely, so load(save(t)) == t bit
# for bit.  Parsing is strict: wrong field counts, stray fields, checksum or
# digit-count mismatches, and integers not in the canonical decimal form str(n)
# (no sign on naturals, no leading zeros, no '_' or whitespace) are all errors.
# ---------------------------------------------------------------------------


def mantissa_digits(target_bits: int) -> int:
    """ceil(target_bits * 0.302) + 2, in integers so that any header value has one."""
    return -(-target_bits * 302 // 1000) + 2


def parse_real(token: str, target_bits: int) -> tuple[int, int, int, int]:
    """The raw tuple of a value token, rounded to nearest at target_bits, ties
    to even (mpnum.decimal_to_raw)."""
    # the digit count is compared, not put in the pattern: a count past the
    # regex repetition limit would raise OverflowError instead
    m = re.fullmatch(r"([+-][0-9])\.([0-9]+)e(\+0|[+-][1-9][0-9]*)", token)
    if m is None or len(m.group(2)) != mantissa_digits(target_bits) - 1:
        raise TableFormatError(f"malformed value token {token!r}")
    return decimal_to_raw(int(m.group(1) + m.group(2)), int(m.group(3)) - len(m.group(2)),
                          target_bits)


def _payload_lines(table: CoefficientTable) -> list[str]:
    digits = mantissa_digits(table.target_bits)
    return [
        f"{k} {format_real(table.raw[k], digits)} {table.error_bound_exponents[k]}"
        for k in range(table.k_max + 1)
    ]


def save_table(table: CoefficientTable, path) -> None:
    payload = "".join(line + "\n" for line in _payload_lines(table))
    sha = sha256(payload.encode("ascii")).hexdigest()
    header = (
        f"{FORMAT_MAGIC}\n"
        f"kind={table.kind} kmax={table.k_max} target_bits={table.target_bits}\n"
        f"sha256={sha}\n"
    )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header)
        fh.write(payload)


def load_table(path) -> CoefficientTable:
    """Strict parse of cache format v2; any deviation raises TableFormatError."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 4:
        raise TableFormatError("truncated file")
    if lines[0] != FORMAT_MAGIC:
        raise TableFormatError(f"unsupported format version line {lines[0]!r}")
    m = re.fullmatch(f"kind=(A|b) kmax=({_NAT}) target_bits=({_NAT})", lines[1])
    if m is None:
        raise TableFormatError(f"malformed header line {lines[1]!r}")
    kind, k_max, target_bits = m.group(1), int(m.group(2)), int(m.group(3))
    if target_bits < 16:
        raise TableFormatError("target_bits out of range")
    c = re.fullmatch(r"sha256=([0-9a-f]{64})", lines[2])
    if c is None:
        raise TableFormatError(f"malformed checksum line {lines[2]!r}")
    payload_lines = lines[3:]
    if len(payload_lines) != k_max + 1:
        raise TableFormatError(
            f"expected {k_max + 1} payload lines, found {len(payload_lines)}"
        )
    payload = "".join(line + "\n" for line in payload_lines)
    sha = sha256(payload.encode("ascii")).hexdigest()
    if sha != c.group(1):
        raise TableFormatError("checksum mismatch")
    raw: list[tuple[int, int, int, int]] = []
    errs: list[int] = []
    for k, line in enumerate(payload_lines):
        parts = line.split(" ")
        if len(parts) != 3:
            raise TableFormatError(f"malformed payload line {line!r}")
        if parts[0] != str(k):
            raise TableFormatError(f"payload index {parts[0]!r} out of order (expected {k})")
        raw.append(parse_real(parts[1], target_bits))
        if not re.fullmatch(_INT, parts[2]):
            raise TableFormatError(f"malformed error bound in line {line!r}")
        errs.append(int(parts[2]))
    return CoefficientTable(
        kind=kind,
        k_max=k_max,
        target_bits=target_bits,
        raw=tuple(raw),
        error_bound_exponents=tuple(errs),
    )
