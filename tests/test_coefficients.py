import hashlib
import math
import time
from fractions import Fraction
from itertools import count

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, from_str, round_nearest, to_str

from maslanka import cli
from maslanka.bernoulli import _pi_squared, bernoulli_number, zeta_even
from maslanka.coefficients import (
    CoefficientTable,
    TableFormatError,
    a_k,
    a_k_alt,
    b_k,
    build_table,
    cross_identity_pairs,
    format_real,
    load_table,
    mantissa_digits,
    parse_real,
    save_table,
)
from maslanka.mpnum import PrecisionContext, _raw, required_bits_for_alternating_sum


def _oracle_sum(k: int, reciprocal: bool):
    """Independent check value from mpmath.zeta (no shared code with a_k/b_k)."""
    with mp.workprec(340):
        acc = mp.zero
        for j in range(k + 1):
            z = mpmath.zeta(2 * j + 2)
            t = mpf(math.comb(k, j)) * (1 / z if reciprocal else (2 * j + 1) * z)
            acc = acc + t if j % 2 == 0 else acc - t
        return +acc


class TestAk:
    def test_k0_is_zeta2(self, ctx128):
        with mp.workprec(200):
            rel = abs(a_k(0, ctx128) - zeta_even(2, ctx128)) / zeta_even(2, ctx128)
        assert rel < mpf(2) ** -124

    @pytest.mark.parametrize(
        "k,text",
        [
            (0, "1.6449340668482264365"),
            (1, "-1.6020356342851881381"),
            (2, "0.23770997450364298595"),
        ],
    )
    def test_frozen_values(self, k, text, ctx128):
        with mp.workprec(200):
            diff = abs(a_k(k, ctx128) - mpf(text))
        assert diff < mpf("1e-18")

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 25, 40])
    def test_independent_zeta_oracle(self, k, ctx128):
        with mp.workprec(340):
            want = _oracle_sum(k, reciprocal=False)
            rel = abs(a_k(k, ctx128) - want) / abs(want)
        assert rel < mpf(2) ** -124

    def test_rejects_negative_k(self, ctx128):
        with pytest.raises(ValueError):
            a_k(-1, ctx128)

    @pytest.mark.parametrize("k", [10, 50, 100])
    def test_refinement_consistency(self, k, ctx128):
        """Doubling target (hence working) precision moves only trailing bits."""
        hi = a_k(k, PrecisionContext(target_bits=256))
        with mp.workprec(400):
            rel = abs(a_k(k, ctx128) - hi) / abs(hi)
        assert rel < mpf(2) ** -126


class TestBk:
    def test_k0_is_six_over_pi_squared(self, ctx128):
        with mp.workprec(200):
            want = 6 / mpmath.pi ** 2
            rel = abs(b_k(0, ctx128) - want) / want
        assert rel < mpf(2) ** -124

    def test_k1_frozen(self, ctx128):
        with mp.workprec(200):
            diff = abs(b_k(1, ctx128) - mpf("-0.31601130106756353836"))
        assert diff < mpf("1e-18")

    @pytest.mark.parametrize("k", [3, 10, 40])
    def test_independent_zeta_oracle(self, k, ctx128):
        with mp.workprec(340):
            want = _oracle_sum(k, reciprocal=True)
            rel = abs(b_k(k, ctx128) - want) / abs(want)
        assert rel < mpf(2) ** -124

    def test_rejects_negative_k(self, ctx128):
        with pytest.raises(ValueError):
            b_k(-2, ctx128)

    def test_k500_stable_under_refinement(self, ctx128):
        lo = b_k(500, ctx128)
        hi = b_k(500, PrecisionContext(target_bits=256))
        assert mpmath.sign(lo) == mpmath.sign(hi)
        with mp.workprec(400):
            rel = abs(lo - hi) / abs(hi)
        assert rel < mpf(2) ** -120


class TestIdentities:
    def test_alt_form_k1_matches_closed_form(self, ctx128):
        # j=0 term only: zeta(2) - 3 zeta(4)
        with mp.workprec(200):
            want = zeta_even(2, ctx128) - 3 * zeta_even(4, ctx128)
            diff = abs(a_k_alt(1, ctx128) - want)
        assert diff < mpf(2) ** -150

    def test_alt_form_rejects_k_zero(self, ctx128):
        with pytest.raises(ValueError):
            a_k_alt(0, ctx128)

    def test_identity_a_sweep(self, ctx128):
        # reindexed C(k-1,j) sum equals the defining sum, k = 1..100
        for k in range(1, 101):
            with mp.workprec(300):
                lhs = a_k_alt(k, ctx128)
                rhs = a_k(k, ctx128)
                rel = abs(lhs - rhs) / abs(rhs)
            assert rel < mpf(2) ** -122, k

    def test_identity_b_binomial_involution(self, ctx128):
        # sum_k C(n,k)(-1)^k b_k recovers 1/zeta(2n+2)
        bs = [b_k(k, ctx128) for k in range(31)]
        for n in range(31):
            with mp.workprec(300):
                acc = mp.zero
                for k in range(n + 1):
                    t = mpf(math.comb(n, k)) * bs[k]
                    acc = acc + t if k % 2 == 0 else acc - t
                diff = abs(acc - 1 / zeta_even(2 * n + 2, ctx128))
            assert diff < mpf(2) ** -110, n

    @pytest.mark.parametrize("k", [0, 1, 2, 10, 30, 60])
    def test_exact_pi_oracle_path(self, k, ctx128):
        # A_k = sum_j c_j (pi^2)^(j+1), c_j = (-1)^j C(k,j) (2j+1) q(2j+2) exact
        # rationals, q(m) = |B_m| 2^(m-1) / m!; one Horner pass in mpmath's pi^2
        # at 300 bits does all the rounding, unlike the kernel's fixed-point row
        def q(m):
            return abs(bernoulli_number(m)) * 2 ** (m - 1) / math.factorial(m)

        coeffs = [(-1) ** j * math.comb(k, j) * (2 * j + 1) * q(2 * j + 2) for j in range(k + 1)]
        with mp.workprec(300):
            x = mp.pi ** 2
            acc = mp.zero
            for c in reversed(coeffs):
                acc = acc * x + mpf(c.numerator) / mpf(c.denominator)
            want = acc * x
            rel = abs(want - a_k(k, ctx128)) / abs(a_k(k, ctx128))
        assert rel < mpf(2) ** -120


class TestBuildTable:
    def test_small_a_table_matches_pointwise(self, ctx64):
        table = build_table("A", 2, ctx64)
        for k in range(3):
            with mp.workprec(64):
                want = +a_k(k, ctx64)
            assert table.values[k] == want

    def test_b_zero_table(self, ctx64):
        table = build_table("b", 0, ctx64)
        assert table.k_max == 0
        with mp.workprec(96):
            rel = abs(table.values[0] - 6 / mpmath.pi ** 2) / (6 / mpmath.pi ** 2)
        assert rel < mpf(2) ** -60

    def test_a_table_head_is_zeta2(self, table_a400_128):
        ctx = PrecisionContext(target_bits=128)
        with mp.workprec(200):
            rel = abs(table_a400_128.values[0] - zeta_even(2, ctx)) / zeta_even(2, ctx)
        assert rel < mpf(2) ** -124

    def test_deterministic_rebuild(self, ctx128):
        t1 = build_table("A", 30, ctx128)
        t2 = build_table("A", 30, ctx128)
        assert t1.values == t2.values
        assert t1.error_bound_exponents == t2.error_bound_exponents

    def test_rejects_bad_kind_and_kmax(self, ctx64):
        with pytest.raises(ValueError):
            build_table("B", 5, ctx64)
        with pytest.raises(ValueError):
            build_table("A", -1, ctx64)


@pytest.mark.parametrize("kind,k_max,bits", [("A", 400, 128), ("b", 600, 160), ("A", 900, 128)])
def test_row_equals_all_bernoulli_row(kind, k_max, bits, empty_bernoulli_table):
    """The kernel's row, Dirichlet sums from the switch point m^(m-1) (m-1) >
    2^prec on, equals int for int the row built from exact Bernoulli numbers
    by the pi^2 walk alone, and each entry is within 1/2 + 2^-32 of w_j 2^W
    by mpmath.zeta."""
    from maslanka.bernoulli import _zeta_row
    from maslanka.coefficients import _fixed_row, _row_entry, _row_prec

    w = required_bits_for_alternating_sum(k_max, bits)
    prec = _row_prec(w)
    assert _switch(prec) < k_max // 2
    exact = [_row_entry(kind, j, z, prec, w) for j, z in enumerate(_zeta_row(k_max + 1, prec))]
    row = _fixed_row(kind, k_max + 1, w)
    assert row == exact
    with mp.workprec(w + 80):
        for j, r in enumerate(row):
            z = mpmath.zeta(2 * j + 2)
            x = mpmath.ldexp((2 * j + 1) * z if kind == "A" else 1 / z, w)
            assert abs(r - x) <= mpf(1) / 2 + mpf(2) ** -32, j


def _switch(prec: int) -> int:
    """The number of Bernoulli entries below the switch m^(m-1) (m-1) > 2^prec."""
    return next(j for j in count() if (2 * j + 2) ** (2 * j + 1) * (2 * j + 1) > 2 ** prec)


def _zeta_fixed_per_m(m: int, prec: int) -> int:
    """zeta(m) * 2^prec by a per-m route: below the switch m^(m-1) (m-1) >
    2^prec the nearest integer by mpmath.zeta at prec + 128 bits, shared with
    no code of maslanka; else the Dirichlet sum the one-pass row replaced, a
    fresh power n^(m-1) and a full-width division per term."""
    one = 1 << prec
    if m ** (m - 1) * (m - 1) <= one:
        with mp.workprec(prec + 128):
            return int(mp.nint(mp.ldexp(mpmath.zeta(m), prec)))
    total, n = one, 1
    while True:
        n += 1
        p = n ** (m - 1)
        total += one // (p * n)
        if p * (m - 1) > one:
            return total


@pytest.mark.parametrize("k_max,bits", [
    (400, 128), (600, 160), (900, 128), (1000, 200), (0, 64), (1, 64), (3, 64)])
def test_zeta_row_equals_per_m_route(k_max, bits):
    """The one-pass row equals the per-m route int for int, for every even m
    from 2 to 2W at the precision of a table to k_max, so past the switch and
    past the m = 2k_max + 2 that the table itself reads."""
    from maslanka.coefficients import _row_prec, _zeta_fixed_row

    w = required_bits_for_alternating_sum(k_max, bits)
    prec = _row_prec(w)
    assert _zeta_fixed_row(w, prec) == [_zeta_fixed_per_m(m, prec) for m in range(2, 2 * w + 1, 2)]


def test_zeta_row_equals_per_m_route_at_every_small_precision():
    """The same past the switch point at every precision from 20 to 400 bits:
    a switch test off by a factor (m-1)/(m-2) moves the switch at some of them
    but at none of the row precisions above."""
    from maslanka.coefficients import _zeta_fixed_row

    for prec in range(20, 401):
        n = prec // 4 + 4  # 2n > the switch m, which has m log2(m) < prec
        assert _zeta_fixed_row(n, prec) == [
            _zeta_fixed_per_m(m, prec) for m in range(2, 2 * n + 1, 2)], prec


def _alt_row(k_max: int, bits: int):
    """n and w of a_k_alt's row for A_k_max at `bits`."""
    return pytest.param(k_max + 1, required_bits_for_alternating_sum(k_max, bits),
                        id=f"{k_max}-{bits}")


def _kernel_row(k_max: int, bits: int):
    """n and w of the Bernoulli half of the kernel row of a table to k_max."""
    from maslanka.coefficients import _row_prec

    prec = _row_prec(required_bits_for_alternating_sum(k_max, bits))
    return pytest.param(_switch(prec), prec, id=f"kernel-{k_max}-{bits}")


@pytest.mark.parametrize("n,w", [
    _alt_row(1, 64), _alt_row(100, 64), _alt_row(100, 128), _alt_row(300, 128),
    _kernel_row(400, 128), _kernel_row(600, 160), _kernel_row(900, 128)])
def test_alt_row_within_half_a_unit(n, w):
    """The pi^2 walk, q(2j+2) times fixed-point powers of one pi^2, is within
    1/2 + 2^-32 of zeta(2j+2) 2^w by mpmath.zeta, at the scale of a_k_alt's
    rows and at the precision of the kernel rows' Bernoulli half."""
    from maslanka.bernoulli import _zeta_row

    with mp.workprec(w + 80):
        for j, z in enumerate(_zeta_row(n, w)):
            assert abs(z - mpmath.ldexp(mpmath.zeta(2 * j + 2), w)) <= mpf(1) / 2 + mpf(2) ** -32, j


def _reference_heads(kind: str, k_max: int, prec: int) -> list[int]:
    """sum_j (-1)^j C(k,j) floor(w_j 2^prec) for k = 0..k_max, w_j from mpmath.zeta.

    Shares no code with maslanka: every floor is within 2 units of w_j 2^prec
    (the mpf evaluation at prec + 16 bits adds well under one), so head k is
    within 2^(k+1) units of the exact coefficient times 2^prec.
    """
    with mp.workprec(prec + 16):
        signed = []
        for j in range(k_max + 1):
            z = mpmath.zeta(2 * j + 2)
            r = int(mpmath.floor(mpmath.ldexp((2 * j + 1) * z if kind == "A" else 1 / z, prec)))
            signed.append(r if j % 2 == 0 else -r)
    heads, binom = [], [1]
    for _ in range(k_max + 1):
        heads.append(sum(c * r for c, r in zip(binom, signed)))
        binom = [1] + [a + b for a, b in zip(binom, binom[1:])] + [1]
    return heads


@pytest.mark.parametrize("fixture", ["table_a900_128", "table_b1000_160"])
def test_table_within_a_priori_bound(fixture, request):
    """Every entry against an independent reference at W + 64 bits, within
    2^(k-W-1) for the row rounding plus half an ulp at target_bits, and
    within the 2^e_k the table stores for it.

    The factor 1 + 2^-30 on the row term covers the up to 2^-32 units by which
    a row entry may exceed half a unit, and the reference's own error of
    2^(k-W-63).
    """
    table = request.getfixturevalue(fixture)
    t = table.target_bits
    w = required_bits_for_alternating_sum(table.k_max, t)
    prec = w + 64
    for k, ref in enumerate(_reference_heads(table.kind, table.k_max, prec)):
        sign, man, exp, bc = table.values[k]._mpf_
        assert exp + prec >= 0
        err = abs((-man if sign else man) * 2 ** (exp + prec) - ref)
        row_term = 2 ** (k + prec - w - 1)
        half_ulp = 2 ** (exp + bc - t - 1 + prec)
        assert err * 2 ** 30 <= row_term * (2 ** 30 + 1) + half_ulp * 2 ** 30, k
        assert err <= Fraction(2) ** (table.error_bound_exponents[k] + prec), k


class TestErrorBounds:
    def test_stored_exponent_formula(self, table_a900_128, table_b1000_160):
        # e_k is the least e with 2^e >= half an ulp of the rounded entry at
        # target_bits + 2^(k-W-1) (1 + 2^-30), W the table's row scale
        for table in (table_a900_128, table_b1000_160):
            t = table.target_bits
            w = required_bits_for_alternating_sum(table.k_max, t)
            for k, e in enumerate(table.error_bound_exponents):
                _, _, exp, bc = table.values[k]._mpf_
                model = (Fraction(2) ** (exp + bc - t - 1)
                         + Fraction(2) ** (k - w - 1) * (1 + Fraction(1, 2 ** 30)))
                assert Fraction(2) ** (e - 1) < model <= Fraction(2) ** e, (table.kind, k)
                assert table.error_bound(k) == mpf(2) ** e

    def test_bound_dominates_observed_refinement_gap(self, ctx128):
        # the bound describes the summation error of the unrounded a_k; the
        # table value adds at most one 128-bit ulp of target rounding on top
        table = build_table("A", 60, ctx128)
        hi = PrecisionContext(target_bits=256)
        for k in (10, 35, 60):
            with mp.workprec(400):
                refined = a_k(k, hi)
                gap = abs(a_k(k, ctx128) - refined)
                table_gap = abs(table.values[k] - refined)
                slack = table.error_bound(k) + abs(refined) * mpf(2) ** -127
            assert gap < table.error_bound(k)
            assert table_gap < slack


class TestTableType:
    def test_length_validation(self, ctx64):
        with pytest.raises(ValueError):
            CoefficientTable(
                kind="A",
                k_max=2,
                target_bits=64,
                raw=((0, 1, 0, 1),),
                error_bound_exponents=(-60, -60, -60),
            )
        with pytest.raises(ValueError):
            CoefficientTable(
                kind="A",
                k_max=0,
                target_bits=64,
                raw=((0, 1, 0, 1),),
                error_bound_exponents=(),
            )

    def test_kind_and_provenance_validation(self):
        with pytest.raises(ValueError):
            CoefficientTable("Z", 0, 64, ((0, 1, 0, 1),), (-60,))


class TestCache:
    def test_round_trip_small(self, ctx128, tmp_path):
        table = build_table("A", 50, ctx128)
        path = tmp_path / "a50.coeff"
        save_table(table, path)
        back = load_table(path)
        assert back.kind == table.kind
        assert back.k_max == table.k_max
        assert back.target_bits == table.target_bits
        assert back.values == table.values
        assert back.error_bound_exponents == table.error_bound_exponents

    def test_round_trip_acceptance_table(self, table_a400_128, tmp_path):
        path = tmp_path / "a400.coeff"
        save_table(table_a400_128, path)
        assert load_table(path).values == table_a400_128.values

    def test_rewrite_is_byte_identical(self, ctx64, tmp_path):
        table = build_table("b", 12, ctx64)
        p1, p2 = tmp_path / "one", tmp_path / "two"
        save_table(table, p1)
        save_table(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_b_kind_survives(self, ctx64, tmp_path):
        table = build_table("b", 3, ctx64)
        path = tmp_path / "b3.coeff"
        save_table(table, path)
        assert load_table(path).kind == "b"

    def _written(self, ctx, tmp_path):
        table = build_table("A", 5, ctx)
        path = tmp_path / "t.coeff"
        save_table(table, path)
        return path

    def test_corrupt_magic(self, ctx64, tmp_path):
        # v1 files store a bound that leaves out the final rounding
        path = self._written(ctx64, tmp_path)
        lines = path.read_text().split("\n")
        lines[0] = "MASLANKA-COEFF v1"
        path.write_text("\n".join(lines))
        with pytest.raises(TableFormatError, match="unsupported format version"):
            load_table(path)
        assert cli.run(["cache-info", "--table", str(path)]) == cli.EXIT_USAGE

    def test_corrupt_checksum(self, ctx64, tmp_path):
        path = self._written(ctx64, tmp_path)
        lines = path.read_text().split("\n")
        digest = lines[2].split("=")[1]
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        lines[2] = "sha256=" + flipped
        path.write_text("\n".join(lines))
        with pytest.raises(TableFormatError, match="checksum"):
            load_table(path)

    def test_missing_payload_line(self, ctx64, tmp_path):
        path = self._written(ctx64, tmp_path)
        lines = path.read_text().split("\n")
        del lines[5]
        path.write_text("\n".join(lines))
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_tampered_value_detected(self, ctx64, tmp_path):
        path = self._written(ctx64, tmp_path)
        text = path.read_text().replace("e+0 ", "e+1 ", 1)
        path.write_text(text)
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "stub.coeff"
        path.write_text("MASLANKA-COEFF v2\n")
        with pytest.raises(TableFormatError, match="truncated"):
            load_table(path)

    def test_huge_target_bits_is_a_malformed_value(self, tmp_path):
        # the digit count of 10^30 bits is past any regex repetition limit
        payload = "0 +1.6e+0 -5\n"
        path = tmp_path / "huge.coeff"
        path.write_text("MASLANKA-COEFF v2\nkind=A kmax=0 target_bits=" + "1" + "0" * 30 + "\n"
                        f"sha256={hashlib.sha256(payload.encode('ascii')).hexdigest()}\n" + payload)
        with pytest.raises(TableFormatError, match="malformed value token"):
            load_table(path)
        assert cli.run(["cache-info", "--table", str(path)]) == cli.EXIT_USAGE

    def test_unknown_header_field_rejected(self, ctx64, tmp_path):
        path = self._written(ctx64, tmp_path)
        lines = path.read_text().split("\n")
        lines[1] += " compression=zip"
        path.write_text("\n".join(lines))
        with pytest.raises(TableFormatError):
            load_table(path)

    @pytest.mark.parametrize("field,edit", [
        ("bound", lambda s: s[:-1] + "_" + s[-1]),  # int() would take -9_5 as -95
        ("bound", lambda s: s + "\t"),               # and -95 followed by a tab
        ("kmax", lambda s: "00" + s),                # \d+ would take kmax=005 as 5
    ], ids=["bound-underscore", "bound-tab", "kmax-leading-zeros"])
    def test_non_canonical_integer_rejected(self, field, edit, ctx64, tmp_path):
        path = self._written(ctx64, tmp_path)
        lines = path.read_text().split("\n")
        if field == "kmax":
            lines[1] = lines[1].replace("kmax=5", "kmax=" + edit("5"))
        else:
            k, value, bound = lines[5].split(" ")
            assert len(bound) > 1
            lines[5] = " ".join([k, value, edit(bound)])
            # recompute the checksum, so that only the field itself is at fault
            payload = "".join(line + "\n" for line in lines[3:-1])
            lines[2] = "sha256=" + hashlib.sha256(payload.encode("ascii")).hexdigest()
        path.write_text("\n".join(lines))
        with pytest.raises(TableFormatError, match="malformed"):
            load_table(path)
        assert cli.run(["cache-info", "--table", str(path)]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("line,edit,message", [
        (1, lambda s: s.replace("target_bits=64", "target_bits=15"), "target_bits out of range"),
        (2, lambda s: s[:-1], "malformed checksum line"),  # 63 hex digits
        (5, lambda s: s + " 0", "malformed payload line"),
        (5, lambda s: "3" + s[1:], "payload index '3' out of order"),  # line 5 holds k = 2
    ], ids=["target-bits-below-16", "checksum-line", "payload-fields", "payload-index"])
    def test_rejected_line(self, line, edit, message, ctx64, tmp_path):
        path = self._written(ctx64, tmp_path)
        lines = path.read_text().split("\n")
        lines[line] = edit(lines[line])
        if line >= 3:
            # recompute the checksum, so that only the edited field is at fault
            payload = "".join(line + "\n" for line in lines[3:-1])
            lines[2] = "sha256=" + hashlib.sha256(payload.encode("ascii")).hexdigest()
        path.write_text("\n".join(lines))
        with pytest.raises(TableFormatError, match=message):
            load_table(path)
        assert cli.run(["cache-info", "--table", str(path)]) == cli.EXIT_USAGE


class TestValueFormat:
    def test_digit_budget(self):
        assert mantissa_digits(128) == 41
        assert mantissa_digits(64) == 22

    def test_zero_token(self):
        digits = mantissa_digits(64)
        tok = format_real(mpf(0)._mpf_, digits)
        assert tok == "+0." + "0" * 21 + "e+0"
        assert parse_real(tok, 64) == parse_real("-" + tok[1:], 64) == mpf(0)._mpf_

    def test_parse_rejects_malformed(self):
        three = "+3." + "0" * 21  # a 64-bit mantissa; only "e+0" completes it
        assert parse_real(three + "e+0", 64) == mpf(3)._mpf_
        for bad in ("1.0e+0", "+1.0", "+1.0e0", "+x.0e+0", "",
                    three + "e+00", three + "e-0", three + "e+01", three + "e+1_0"):
            with pytest.raises(TableFormatError):
                parse_real(bad, 64)

    def test_parse_is_the_mpf_constructor(self, bench_tables):
        # the mpf that +mpf(token) gives under workprec(bits), as _mpf_: every
        # token of the three tables the benchmark writes, zero, and decimal
        # exponents past 400, where mpmath's from_str multiplies by 10^exp
        cases = [(format_real(v, mantissa_digits(t.target_bits)), t.target_bits)
                 for t in bench_tables for v in t.raw]
        for bits in (16, 64, 160):
            tail = "7" * (mantissa_digits(bits) - 2)
            cases += [(format_real(mpf(0)._mpf_, mantissa_digits(bits)), bits),
                      (f"+0.{tail}0e+0", bits), (f"-9.{tail}1e-401", bits),
                      (f"+1.{tail}3e+4096", bits), (f"-3.{tail}9e-99999", bits)]
        assert len(cases) == 401 + 601 + 901 + 15
        for tok, bits in cases:
            with mp.workprec(bits):
                expected = (+mpf(tok))._mpf_
            assert parse_real(tok, bits) == expected, tok

    @settings(max_examples=150, deadline=None)
    @given(
        st.booleans(),
        st.integers(2 ** 127, 2 ** 128 - 1),
        st.integers(-300, 300),
    )
    def test_round_trip_any_128_bit_value(self, neg, mantissa, e2):
        with mp.workprec(128):
            x = mpf(mantissa) * mpf(2) ** e2
            if neg:
                x = -x
        tok = format_real(x._mpf_, mantissa_digits(128))
        assert parse_real(tok, 128) == x._mpf_


@pytest.fixture(scope="module")
def bench_tables(table_a400_128, table_a900_128):
    """The three tables the benchmark writes: A k<=400 @128, b k<=600 @160, A k<=900 @128."""
    return [table_a400_128, build_table("b", 600, PrecisionContext(160)), table_a900_128]


def _to_str_token(raw, digits: int) -> str:
    """The value token as mpmath's to_str prints it, as the format was first written."""
    if not raw[1]:
        return "+0." + "0" * (digits - 1) + "e+0"
    text = to_str(raw, digits, strip_zeros=False, min_fixed=1, max_fixed=0)
    mant, _, exp = text.lstrip("+-").partition("e")
    return f"{'-' if text.startswith('-') else '+'}{mant}e{int(exp or 0):+d}"


def _nearest_token(raw, digits: int) -> str:
    """The value token of raw rounded to nearest at `digits` digits, ties away
    from zero, in exact rational arithmetic."""
    sign, man, exp, _ = raw
    x = man * Fraction(2) ** exp
    e10 = len(str(math.floor(x))) - 1 if x >= 1 else -len(str(math.ceil(1 / x) - 1))
    n = math.floor(x * Fraction(10) ** (digits - 1 - e10) + Fraction(1, 2))
    if n == 10 ** digits:
        n, e10 = n // 10, e10 + 1
    text = str(n)
    return f"{'-' if sign else '+'}{text[0]}.{text[1:]}e{e10:+d}"


def _raw_float(neg: bool, man: int, mag: int) -> tuple[int, int, int, int]:
    """The raw tuple of (-1)^neg man 2^(mag - bitlength(man)), of magnitude exp + bc = mag."""
    _, man, _, bc = from_man_exp(man, 0)
    return (int(neg), man, mag - bc, bc)


def _token(data, bits: int, e_lo: int, e_hi: int) -> tuple[str, int, int]:
    """(token, signed mantissa integer, value exponent e) with the token's value
    that integer times 10^e, e drawn from [e_lo, e_hi]."""
    digits = mantissa_digits(bits)
    man = data.draw(st.integers(0, 10 ** digits - 1)) * data.draw(st.sampled_from((1, -1)))
    e = data.draw(st.integers(e_lo, e_hi))
    text = str(abs(man)).zfill(digits)
    return f"{'-' if man < 0 else '+'}{text[0]}.{text[1:]}e{e + digits - 1:+d}", man, e


class TestIntegerIO:
    """Rounding, formatting and parsing in integers, with mpmath as the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-2 ** 400, 2 ** 400), st.integers(-6000, 6000), st.integers(0, 420))
    @example(0b101, 0, 2)  # ties: to even, down and up
    @example(0b111, 0, 2)
    @example(-0b1101, 7, 3)
    @example(2 ** 128 - 1, -9, 128)  # rounds up to a power of two
    @example(0, 5, 64)
    def test_rounding_is_from_man_exp(self, man, exp, bits):
        assert _raw(man, exp, bits) == from_man_exp(man, exp, bits, round_nearest)

    def test_format_is_to_str_on_every_table_token(self, bench_tables):
        for t in bench_tables:
            digits = mantissa_digits(t.target_bits)
            for raw in t.raw:
                assert format_real(raw, digits) == _to_str_token(raw, digits), raw

    @settings(max_examples=400, deadline=None)
    @given(st.booleans(), st.integers(1, 2 ** 700), st.integers(-3500, 3500),
           st.integers(2, 160))
    @example(False, 2 ** 41 - 1, 0, 12)  # all nines: the carry moves the exponent
    # just above a decimal tie, with more bits than to_str keeps: it truncates
    # these onto or below the tie and prints ...581e-20, ...247e-15, ...616e-1
    @example(False, 17364293764769195601770907825, -63, 22)
    @example(False, 12821544679544116010122005397, -46, 22)
    @example(False, 3594474382782522203506311446140263829576541436367884974849, -2, 51)
    def test_format_is_to_str(self, neg, man, mag, digits):
        # any width of mantissa, digit count and magnitude exp + bc to_str
        # converts in binary fixed point: the token is the nearest one, and
        # to_str's unless a decimal tie lies in (x - d, x] with d = 2^(mag -
        # bitprec + 3), the most to_str's truncations take off x
        raw = _raw_float(neg, man, mag)
        token = format_real(raw, digits)
        assert token == _nearest_token(raw, digits)
        old = _to_str_token(raw, digits)
        if old != token:
            sign, man, exp, _ = raw
            d = mag - (int((digits + 3) * math.log(10, 2)) + 10) + 3
            e = min(exp, d)
            below = (sign, (man << exp - e) - (1 << d - e), e, None)
            assert old == _nearest_token(below, digits), raw

    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.integers(1, 2 ** 700), st.integers(3501, 9000), st.booleans(),
           st.integers(2, 160))
    def test_format_beyond_to_str_range_is_correctly_rounded(self, neg, man, mag, tiny, digits):
        # past |exp + bc| = 3500 to_str divides by a rounded power of ten;
        # every token here is the correctly rounded one, whatever to_str prints
        raw = _raw_float(neg, man, -mag if tiny else mag)
        assert format_real(raw, digits) == _nearest_token(raw, digits)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(16, 400), st.data())
    def test_parse_is_from_str(self, bits, data):
        tok, _, _ = _token(data, bits, -400, 400)
        assert parse_real(tok, bits) == from_str(tok, bits, round_nearest)

    @pytest.mark.parametrize("tok", ["+6.553700e+4", "+6.553900e+4", "-6.553900e+4",
                                     "+5.000000e-1", "+3.276850e+4", "+0.000000e+0"])
    def test_parse_exact_and_tied_values(self, tok):
        # 65537 and 65539 lie halfway between 16-bit neighbours: ties to even
        assert parse_real(tok, 16) == from_str(tok, 16, round_nearest)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(16, 400), st.sampled_from((1, -1)), st.data())
    def test_parse_beyond_400_is_correctly_rounded(self, bits, side, data):
        # past |e| = 400 from_str multiplies by a rounded power of ten; every
        # value here is the exact rational rounded to nearest, ties to even
        lo, hi = (401, 4000) if side > 0 else (-4000, -401)
        tok, man, e = _token(data, bits, lo, hi)
        want = from_rational(man * 10 ** max(e, 0), 10 ** max(-e, 0), bits, round_nearest)
        assert parse_real(tok, bits) == want

    def test_huge_exponents_parse_in_microseconds(self):
        # table files come from outside the program: an exponent of 10^9
        # must not build 10^(10^9)
        cases = []
        for bits in (16, 128, 160, 512):
            tail = "3" * (mantissa_digits(bits) - 2)
            cases += [(f"-3.{tail}7e-999999999", bits), (f"+7.{tail}1e+999999999", bits),
                      (f"+1.{tail}9e-1000000000", bits), (f"-9.{tail}1e+1000000000", bits)]
        start = time.perf_counter()
        got = [parse_real(tok, bits) for tok, bits in cases]
        assert time.perf_counter() - start < 0.5
        assert got == [from_str(tok, bits, round_nearest) for tok, bits in cases]


def test_pi_squared_within_six_tenths_at_every_scale():
    # the bound the zeta walk's proof reads, against mpmath's pi at 2s + 64 bits
    for s in range(2, 5001):
        with mp.workprec(2 * s + 64):
            assert abs(_pi_squared(s) - mp.ldexp(mp.pi ** 2, s)) < mpf("0.6"), s


def _scaled(x: mpf, prec: int) -> int:
    """x * 2^prec as an exact integer (x must carry no bits below 2^-prec)."""
    sign, man, exp, _ = x._mpf_
    assert exp + prec >= 0
    return (-man if sign else man) << (exp + prec)


class TestSharedKernel:
    @pytest.mark.parametrize("kind", ["A", "b"])
    @pytest.mark.parametrize("k", [0, 1, 2, 17, 100, 333])
    def test_single_index_is_the_exact_dot_product(self, kind, k, ctx128):
        # oracle: the exact dot product sum_j (-1)^j C(k,j) r_j, which the last
        # head of k rounds of differences must equal over the same row
        from maslanka.coefficients import _fixed_row

        w = required_bits_for_alternating_sum(k, 128)
        row = _fixed_row(kind, k + 1, w)
        head = sum((-1) ** j * math.comb(k, j) * r for j, r in enumerate(row))
        value = (a_k if kind == "A" else b_k)(k, ctx128)
        assert _scaled(value, w) == head

    @pytest.mark.parametrize("kind,k_max,bits,sha", [
        ("A", 400, 128, "79be01fc0b85c5b67152593242ffbe8b1218b0a0e3dfea0137a0ca6afe85f399"),
        ("b", 600, 160, "b6630c7714c13597c929442a3d05de02d3da813bce13b215bc2ba44e9fe731a9"),
        ("A", 900, 128, "6d6946df1ca53872e2bd6e701cbb001ec4c0a18e5627d14d27a17c5cba1e4e52"),
        ("A", 2000, 128, "fba4914a7be55976913c136fe80e46a1c4b2bca3146265d231c0b251db1ae43c"),
        ("b", 1000, 200, "4d5e3aee4f568cbaa4ad2c9247067937cd9fdd0c9d292932dd79283b15efae94"),
    ])
    def test_saved_checksum_is_pinned(self, kind, k_max, bits, sha, tmp_path):
        # the checksum lines of the three tables the benchmark writes, and of
        # two deeper ones whose pi^2 walk runs past 2000 bits and whose rows
        # reach the Dirichlet half: a change to their bytes must come with a
        # shown gain in accuracy
        path = tmp_path / "t.coeff"
        save_table(build_table(kind, k_max, PrecisionContext(bits)), path)
        assert path.read_text().split("\n")[2] == f"sha256={sha}"


def _within(value: mpf, ref: int, prec: int, bound: Fraction, k: int) -> bool:
    """|value - A_k| <= bound, with A_k known as ref / 2^prec to 2^(k+1) units."""
    return abs(_scaled(value, prec) - ref) <= bound * 2 ** prec + 2 ** (k + 1)


def _alt_bound(k: int, w: int) -> Fraction:
    return (k + 1) * Fraction(2) ** (k - w) * (Fraction(1, 2) + Fraction(1, 2 ** 32))


class TestRouteBounds:
    """Each route against mpmath.zeta heads at W + 64 bits, never against the other."""

    def test_alt_route_within_its_bound(self, ctx128):
        grid = [1, 2, 7, 30, 75, 100, 300]
        prec = required_bits_for_alternating_sum(max(grid), 128) + 64
        refs = _reference_heads("A", max(grid), prec)
        for k in grid:
            w = required_bits_for_alternating_sum(k, 128)
            assert _within(a_k_alt(k, ctx128), refs[k], prec, _alt_bound(k, w), k), k

    @pytest.mark.parametrize("bits", [64, 128])
    def test_suite_pairs_within_their_bounds(self, bits):
        w = required_bits_for_alternating_sum(100, bits)
        prec = w + 64
        refs = _reference_heads("A", 100, prec)
        pairs = list(cross_identity_pairs(100, PrecisionContext(bits)))
        assert [k for k, _, _ in pairs] == list(range(1, 101))
        for k, ha, hb in pairs:
            va, vb = (mp.make_mpf(_raw(h, -w)) for h in (ha, hb))
            kernel = Fraction(2) ** (k - w - 1) * (1 + Fraction(1, 2 ** 31))
            assert _within(va, refs[k], prec, kernel, k), k
            assert _within(vb, refs[k], prec, _alt_bound(k, w), k), k
