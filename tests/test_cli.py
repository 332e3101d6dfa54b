"""Command-line interface: argument handling, output formats, exit codes.

Everything but the start-up guards runs in-process through cli.run(argv) so
we can use capsys and tmp_path instead of subprocesses.  Exit-code contract:
0 ok, 1 verification failure, 2 usage error, 3 numeric failure.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf

from maslanka import cli, coefficients, phik
from maslanka.cli import parse_complex
from maslanka.coefficients import CoefficientTable, load_table, save_table
from maslanka.mpnum import PrecisionContext, required_bits_for_alternating_sum


def _truncation_tolerance(table, n: int, working_bits: int) -> Fraction:
    """The error identity n may carry, summed exactly: each entry within half an
    ulp at target_bits plus 2^(k-W-1) (1 + 2^-30) of A_k, scaled by C(n-1, k),
    and the two sides' roundings at working_bits (2 units of |rhs|, one for
    each side)."""
    t = table.target_bits
    w = required_bits_for_alternating_sum(table.k_max, t)
    err = Fraction(0)
    for k in range(n):
        _, _, exp, bc = table.values[k]._mpf_
        half_ulp = Fraction(2) ** (exp + bc - t - 1)
        row = Fraction(2) ** (k - w - 1) * (1 + Fraction(1, 2**30))
        err += math.comb(n - 1, k) * (half_ulp + row)
    rhs = Fraction(2 * n - 1) * Fraction(str(mpmath.zeta(2 * n)))
    return err + 2 * rhs / 2**working_bits


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_tables")


@pytest.fixture(scope="module")
def small_table_file(cli_dir):
    """kind=A table to k=64, built through the coeff subcommand itself."""
    path = cli_dir / "a64.tbl"
    rc = cli.run(["coeff", "--kind", "A", "--kmax", "64", "--out", str(path)])
    assert rc == cli.EXIT_OK
    return path


@pytest.fixture(scope="module")
def deep_table_file(cli_dir, table_a400_128):
    # the 400-term session table, saved so file-based subcommands can use it
    path = cli_dir / "a400.tbl"
    save_table(table_a400_128, str(path))
    return path


@pytest.mark.parametrize("argv", [
    ["eval", "--s", "3", "--table", "{a}", "--tol", "1e-10"],
    ["bk", "--kmax", "10", "--bits", "64"],
    ["bk", "--kmax", "10", "--bits", "64", "--format", "json"],
    ["decay", "--table", "{a}", "--kmin", "10", "--kmax", "40"],
    ["decay", "--table", "{a}", "--kmin", "10", "--kmax", "40", "--format", "json"],
], ids=["eval", "bk-csv", "bk-json", "decay-csv", "decay-json"])
def test_out_file_matches_stdout(argv, deep_table_file, tmp_path, capsys):
    argv = [arg.format(a=deep_table_file) for arg in argv]
    dest = tmp_path / "data.out"
    assert cli.run(argv + ["--out", str(dest)]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert cli.run(argv) == cli.EXIT_OK
    assert dest.read_bytes() == capsys.readouterr().out.encode("ascii")


def _raw_at(bits, *texts):
    """mpmath's raw tuples of decimal texts read at `bits` bits."""
    with mp.workprec(bits):
        return tuple(mpf(t)._mpf_ for t in texts)


class TestParseComplex:
    """Raw (re, im) tuples at an explicit precision, im None for a real literal."""

    def test_plain_real(self):
        assert parse_complex("3", 64) == ((0, 3, 0, 2), None)

    def test_negative_real(self):
        assert parse_complex("-2.5", 64) == ((1, 5, -1, 3), None)

    def test_full_form(self):
        assert parse_complex("0.5+14.134725i", 96) == _raw_at(96, "0.5", "14.134725")
        assert parse_complex("0.5+14.134725i", 53) == _raw_at(53, "0.5", "14.134725")

    def test_negative_imaginary(self):
        assert parse_complex("1-2i", 64) == _raw_at(64, "1", "-2")

    def test_pure_imaginary(self):
        zero, one = (0, 0, 0, 0), (0, 1, 0, 1)
        assert parse_complex("2i", 64) == (zero, (0, 1, 1, 1))
        assert parse_complex("i", 64) == (zero, one)
        assert parse_complex("-i", 64) == (zero, (1, 1, 0, 1))
        assert parse_complex("+i", 64) == (zero, one)

    def test_exponent_in_real_part(self):
        # the sign inside 1e-2 must not be taken for the component separator
        assert parse_complex("1e-2+3i", 80) == _raw_at(80, "1e-2", "3")

    def test_exponent_in_imaginary_part(self):
        assert parse_complex("1+2e-3i", 80) == _raw_at(80, "1", "2e-3")

    def test_both_negative(self):
        assert parse_complex("-1.5-2.5i", 64) == _raw_at(64, "-1.5", "-2.5")

    def test_whitespace_stripped(self):
        # a zero imaginary part is kept: the literal names a complex s
        assert parse_complex(" 4+0i ", 64) == ((0, 1, 2, 1), (0, 0, 0, 0))

    @pytest.mark.parametrize("bad", ["", "   ", "abc", "1+2x", "4+0j"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_complex(bad, 64)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "+nan", "Infinity",
                                     "0.5+nani", "nan+2i", "0.5-infi"])
    def test_rejects_non_finite_parts(self, bad):
        with pytest.raises(ValueError, match="s must be a finite number"):
            parse_complex(bad, 64)


class TestCoeffAndCacheInfo:
    def test_progress_and_summary_on_stderr(self, cli_dir, capsys):
        out_path = cli_dir / "a19.tbl"
        rc = cli.run(["coeff", "--kind", "A", "--kmax", "19", "--out", str(out_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_OK
        assert "wrote kind=A kmax=19 target_bits=128" in err

    def test_written_file_loads_back(self, small_table_file):
        table = load_table(str(small_table_file))
        assert table.kind == "A"
        assert table.k_max == 64
        assert table.target_bits == 128

    def test_cache_info_fields(self, small_table_file, capsys):
        rc = cli.run(["cache-info", "--table", str(small_table_file)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "kind = A" in out
        assert "k_max = 64" in out
        assert "target_bits = 128" in out
        assert "mantissa_digits = 41" in out
        assert "checksum = ok" in out
        # first entry is zeta(2)
        assert "first = +1.644934066848226436" in out
        assert "last = " in out

    def test_rebuild_is_byte_identical(self, cli_dir):
        p1, p2 = cli_dir / "d1.tbl", cli_dir / "d2.tbl"
        for p in (p1, p2):
            rc = cli.run(["coeff", "--kind", "A", "--kmax", "16", "--out", str(p)])
            assert rc == cli.EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_cache_info_missing_file(self, cli_dir, capsys):
        rc = cli.run(["cache-info", "--table", str(cli_dir / "absent.tbl")])
        assert rc == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_cache_info_corrupt_file(self, cli_dir, capsys):
        bad = cli_dir / "bad.tbl"
        bad.write_text("not a table\n")
        rc = cli.run(["cache-info", "--table", str(bad)])
        assert rc == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_even_argument_closed_form(self, deep_table_file, capsys):
        rc = cli.run(["eval", "--s", "4+0i", "--table", str(deep_table_file)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        # (s-1)*zeta(s) at s=4 is pi^4/30; zeta itself pi^4/90
        assert "value = +3.2469697011334145745480110" in out
        assert "zeta_value = +1.0823232337111381915160036" in out
        assert "terms_used = 3" in out
        assert "converged = true" in out

    def test_pole_is_reported(self, deep_table_file, capsys):
        rc = cli.run(["eval", "--s", "1", "--table", str(deep_table_file),
                      "--tol", "1e-8"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "s = +1.0" in out
        assert "zeta_value = pole" in out
        assert "converged = true" in out

    def test_exhausted_table_exits_3(self, small_table_file, capsys):
        rc = cli.run(["eval", "--s", "0.5+14.134725i", "--table", str(small_table_file)])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_NUMERIC
        assert "converged = false" in cap.out
        assert "terms_used = 65" in cap.out
        assert "exhausted" in cap.err

    def test_bad_literal_exits_2(self, small_table_file, capsys):
        rc = cli.run(["eval", "--s", "2,5", "--table", str(small_table_file)])
        assert rc == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_s_is_read_at_working_precision(self, deep_table_file, capsys):
        # 0.1 parsed at mpmath's default 53 bits would print +1.0000000000000000555e-1
        cli.run(["eval", "--s", "0.1", "--table", str(deep_table_file), "--bits", "128"])
        out = capsys.readouterr().out
        assert out.startswith("s = +1.0000000000000000000000000000000000000000e-1\n")

    def test_converged_value_is_within_tol(self, cli_dir, capsys):
        # s = 3.3 read at 53 bits moves (s-1) zeta(s) by 1.5e-16, far past tol
        path = cli_dir / "a2000.tbl"
        assert cli.run(["coeff", "--kind", "A", "--kmax", "2000", "--out", str(path)]) == 0
        rc = cli.run(["eval", "--s", "3.3", "--tol", "1e-18", "--bits", "128",
                      "--table", str(path)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "converged = true" in out
        with mp.workprec(256):
            s = mpf("3.3")
            value = mpf(out.split("\nvalue = ")[1].split()[0])
            assert abs(value - (s - 1) * mpmath.zeta(s)) < mpf("1e-18")

    @pytest.mark.parametrize("s", ["nan", "inf", "-inf", "0.5+nani"])
    def test_non_finite_s_exits_2(self, s, small_table_file, capsys):
        rc = cli.run(["eval", f"--s={s}", "--table", str(small_table_file)])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert "error: s must be a finite number" in cap.err
        assert cap.out == ""

    @pytest.mark.parametrize("s", ["-0.5+14.134725i", "-1e-2"])
    def test_leading_minus_reaches_the_series(self, s, small_table_file, capsys):
        # argparse reads "--s -1e-2" as a flag; "--s=VALUE" is the documented form
        rc = cli.run(["eval", f"--s={s}", "--table", str(small_table_file)])
        cap = capsys.readouterr()
        assert rc in (cli.EXIT_OK, cli.EXIT_NUMERIC)
        assert cap.out.startswith("s = -")


class TestBk:
    def test_csv_layout(self, capsys):
        rc = cli.run(["bk", "--kmax", "12", "--bits", "64"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "k,value,abs_value,k34_scaled,k34_log2_scaled"
        assert len(lines) == 13  # header + k=1..12
        first = lines[1].split(",")
        assert first[0] == "1"
        # b_1 = 6/pi^2 - 90/pi^4
        assert first[1].startswith("-3.160113010675635383")
        assert first[2].startswith("+3.160113010675635383")
        assert first[3].startswith("+3.160113010675635383")  # k^(3/4) = 1
        assert first[4].startswith("+0.0")                   # log(1) = 0

    def test_json_layout(self, capsys):
        rc = cli.run(["bk", "--kmax", "8", "--kmin", "2", "--bits", "64",
                      "--format", "json"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["columns"] == ["k", "value", "abs_value", "k34_scaled",
                                  "k34_log2_scaled"]
        assert len(doc["rows"]) == 7
        assert doc["rows"][0][0] == "2"

    def test_out_files_are_deterministic(self, cli_dir, capsys):
        p1, p2 = cli_dir / "bk1.csv", cli_dir / "bk2.csv"
        for p in (p1, p2):
            rc = cli.run(["bk", "--kmax", "10", "--bits", "64", "--out", str(p)])
            assert rc == cli.EXIT_OK
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_table_kind_exits_2(self, small_table_file, capsys):
        rc = cli.run(["bk", "--kmax", "10", "--table", str(small_table_file)])
        assert rc == cli.EXIT_USAGE
        assert "need kind=b" in capsys.readouterr().err

    @pytest.mark.parametrize("kmin", ["-3", "0"])
    def test_kmin_below_one_exits_2(self, kmin, cli_dir, capsys):
        # rejected as rh_diagnostic rejects it, not clamped to 1
        out = cli_dir / f"bk-kmin{kmin}.csv"
        rc = cli.run(["bk", "--kmax", "3", f"--kmin={kmin}", "--bits", "64", "--out", str(out)])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert "error: need 1 <= k_min <= k_max" in cap.err
        assert cap.out == ""
        assert not out.exists()

    def test_kmax_past_table_exits_2(self, cli_dir, capsys):
        # a 20-entry table must not quietly print 20 rows for --kmax 30
        path = cli_dir / "b20.tbl"
        assert cli.run(["coeff", "--kind", "b", "--kmax", "20", "--out", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        rc = cli.run(["bk", "--kmax", "30", "--table", str(path)])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert "table too short for kmax 30" in cap.err
        assert cap.out == ""
        assert cli.run(["bk", "--kmax", "20", "--table", str(path)]) == cli.EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 21


class TestDecay:
    def test_json_fit_block(self, deep_table_file, capsys):
        rc = cli.run(["decay", "--table", str(deep_table_file),
                      "--kmin", "50", "--kmax", "200", "--format", "json"])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_OK
        doc = json.loads(cap.out)
        assert doc["columns"] == ["k", "value", "abs_value", "log_k", "log_abs_value"]
        assert len(doc["rows"]) == 151
        fit = doc["fit"]
        assert fit["k_min"] == 50 and fit["k_max"] == 200
        assert fit["slope"] < -4  # the A_k envelope falls faster than any k^-4
        assert fit["excluded_count"] == 0
        assert "fit k=[50,200]" in cap.err

    def test_csv_layout(self, deep_table_file, capsys):
        rc = cli.run(["decay", "--table", str(deep_table_file),
                      "--kmin", "10", "--kmax", "20"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "k,value,abs_value,log_k,log_abs_value"
        assert len(lines) == 12
        assert lines[1].split(",")[0] == "10"

    def test_range_past_table_end_exits_2(self, small_table_file, capsys):
        rc = cli.run(["decay", "--table", str(small_table_file),
                      "--kmin", "2", "--kmax", "500"])
        assert rc == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_truncation_suite_passes(self, deep_table_file, capsys):
        rc = cli.run(["verify", "--suite", "truncation", "--nmax", "6",
                      "--table", str(deep_table_file)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert out.count("PASS truncation") == 6
        assert "FAIL" not in out

    def test_truncation_tolerance_follows_the_entry_error(self, deep_table_file, capsys):
        # P_k(n) = (-1)^k C(n-1, k) multiplies each entry's rounding, by up to
        # C(59, 29) ~ 6e16 at n = 60, so a fixed tolerance near 2^-120 fails
        # this correct table from n = 25 on
        rc = cli.run(["verify", "--suite", "truncation", "--nmax", "60",
                      "--table", str(deep_table_file)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert out.count("PASS truncation") == 60

    def test_truncation_catches_one_moved_entry(self, table_a400_128, tmp_path, capsys):
        k = 40  # enters identity n = k + 1 first, with P_k(k+1) = (-1)^k
        n = k + 1
        tol = _truncation_tolerance(table_a400_128, n, PrecisionContext(128).working_bits)
        values = list(table_a400_128.values)
        with mp.workprec(128):
            values[k] = +(values[k] + 4 * tol)
        path = tmp_path / "moved.tbl"
        moved = CoefficientTable(kind=table_a400_128.kind, k_max=table_a400_128.k_max,
                                 target_bits=table_a400_128.target_bits,
                                 raw=tuple(v._mpf_ for v in values),
                                 error_bound_exponents=table_a400_128.error_bound_exponents)
        save_table(moved, str(path))
        rc = cli.run(["verify", "--suite", "truncation", "--nmax", "60", "--table", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert rc == cli.EXIT_VERIFY
        assert all(line.startswith("PASS") for line in out[:k])
        assert out[k].startswith(f"FAIL truncation n={n} ")

    def test_cross_identity_suite_passes(self, capsys):
        rc = cli.run(["verify", "--suite", "cross-identity", "--bits", "64"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "PASS cross-identity k=1..100" in out
        assert "worst_rel=" in out

    def test_cross_identity_catches_a_wrong_route(self, monkeypatch, capsys):
        # z_40 of the alt row off by 2^(W-100) units, i.e. by 2^-100: the
        # pairs k >= 40 see it (A_k reads z_0..z_k), scaled by (2k+1) and
        # C(k-1, 39) far past the suite's 2^-122, and no pair below does.
        # The kernel row's Bernoulli half is a shorter walk, left as it is
        j = 40
        zeta_row = coefficients._zeta_row

        def skewed(n, w):
            row = zeta_row(n, w)
            if n > j:
                row[j] += 1 << (w - 100)
            return row

        monkeypatch.setattr(coefficients, "_zeta_row", skewed)
        rc = cli.run(["verify", "--suite", "cross-identity"])
        out = capsys.readouterr().out.splitlines()
        assert rc == cli.EXIT_VERIFY
        failed = [int(line.split()[2][2:]) for line in out[:-1]]
        assert failed == list(range(j, 101))
        assert all(line.startswith("FAIL cross-identity k=") for line in out[:-1])
        assert out[-1].startswith("FAIL cross-identity k=1..100 worst_rel=")

    @pytest.mark.parametrize("past", [0, 1])
    def test_cross_identity_bound_is_exact_at_its_edge(self, past, monkeypatch, capsys):
        # (k+2)(1 + 2^-31) 2^(k-1) units is 576 + 9/2^25 at k = 7: 576 units
        # apart pass and 577 fail
        k, head = 7, 3 << 200
        gap = ((k + 2) * (2**31 + 1) << k >> 32) + past
        assert gap == 576 + past

        def pairs(kmax, ctx):
            yield k, head, head - gap

        monkeypatch.setattr(coefficients, "cross_identity_pairs", pairs)
        rc = cli.run(["verify", "--suite", "cross-identity"])
        out = capsys.readouterr().out.splitlines()
        if past:
            assert rc == cli.EXIT_VERIFY
            assert out[0].startswith("FAIL cross-identity k=7 rel=")
        else:
            assert rc == cli.EXIT_OK
            rel = mpmath.nstr(mpf(gap) / head, 3)
            assert out == [f"PASS cross-identity k=1..100 worst_rel={rel}"]

    @pytest.mark.parametrize("suite", ["truncation", "all"])
    @pytest.mark.parametrize("nmax", ["0", "-3"])
    def test_nmax_below_one_is_a_usage_error(self, suite, nmax, capsys):
        # nothing would be checked, so exit 0 would be a vacuous pass
        rc = cli.run(["verify", "--suite", suite, "--nmax", nmax])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert "error: nmax must be at least 1" in cap.err
        assert cap.out == ""

    @pytest.mark.parametrize("suite", ["truncation", "all"])
    def test_nmax_past_the_table_is_a_usage_error(self, suite, small_table_file, capsys):
        # the 65-entry table holds identities n <= 65; the check comes before
        # any suite, so no PASS line precedes the exit
        rc = cli.run(["verify", "--suite", suite, "--nmax", "66",
                      "--table", str(small_table_file)])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert "error: table too short for nmax 66: need k_max >= 65" in cap.err
        assert cap.out == ""

    def test_builds_its_own_table(self, capsys):
        # no --table: the suite builds the k <= nmax-1 table it needs
        rc = cli.run(["verify", "--suite", "truncation", "--nmax", "6", "--bits", "64"])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert cap.out.count("PASS truncation") == 6
        assert "FAIL" not in cap.out
        assert cap.err == "building kind=A table to k=5 at 64 bits\n"

    def test_global_agreement_default_tolerance_fails(self, deep_table_file, capsys):
        # 2^-400-ish is what 1e-20 would need here; 401 terms cannot reach it,
        # so the suite must report the shortfall and exit 1, not paper over it
        rc = cli.run(["verify", "--suite", "global-agreement",
                      "--table", str(deep_table_file)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_VERIFY
        assert "FAIL global-agreement s=" in out


# Every subcommand at small sizes, run in a scratch directory so that file
# names print the same; `coeff` is pinned by its file, the rest by stdout.
GOLDEN_ARGV = {
    "coeff": ["coeff", "--kind", "A", "--kmax", "40", "--bits", "64", "--out", "a40.tbl"],
    "bk-csv": ["bk", "--kmax", "12", "--bits", "64"],
    "bk-json": ["bk", "--kmax", "12", "--bits", "64", "--format", "json"],
    # deep enough for the Dirichlet half of the row: the benchmark's bk command
    "bk-600-160": ["bk", "--kmax", "600", "--bits", "160", "--format", "csv"],
    # a zeta(2j+2) integer of the row's Bernoulli half that a per-m mpf route
    # rounded one unit off: j = 2 and j = 12
    "bk-40-128": ["bk", "--kmax", "40", "--bits", "128", "--format", "csv"],
    "bk-17-256": ["bk", "--kmax", "17", "--bits", "256", "--format", "csv"],
    "eval-4": ["eval", "--s", "4", "--table", "a40.tbl", "--bits", "64", "--tol", "1e-6"],
    "eval-critical": ["eval", "--s", "0.5+14.134725i", "--table", "a40.tbl", "--bits", "64",
                      "--tol", "1e-6"],
    "eval-pole": ["eval", "--s", "1", "--table", "a40.tbl", "--bits", "64", "--tol", "1e-6"],
    # s read at 232 working bits from a table of 64; far left, where W grows to
    # hold P_k(-15+i); and the default tol below what a 64-bit table supports
    "eval-critical-200": ["eval", "--s", "0.5+14.134725i", "--table", "a40.tbl", "--bits", "200",
                          "--tol", "1e-6"],
    "eval-left": ["eval", "--s=-30+2i", "--table", "a40.tbl", "--bits", "64", "--tol", "1e-6"],
    "eval-tol-below-table": ["eval", "--s", "2", "--table", "a40.tbl"],
    "verify-truncation": ["verify", "--suite", "truncation", "--nmax", "8", "--table", "a40.tbl",
                          "--bits", "64"],
    "verify-cross-identity": ["verify", "--suite", "cross-identity", "--bits", "64"],
    "verify-em-remainder": ["verify", "--suite", "em-remainder", "--bits", "64"],
    "verify-global-agreement": ["verify", "--suite", "global-agreement", "--table", "a40.tbl",
                                "--bits", "64", "--tol", "1e-3"],
    "em-check": ["em-check", "--k", "12", "--a", "3"],
    # the em-check grid's ends and its old miss pair, and the suite at 128 bits
    "em-check-10-4": ["em-check", "--k", "10", "--a", "4", "--bits", "128", "--tol", "1e-6"],
    "em-check-17-5": ["em-check", "--k", "17", "--a", "5", "--bits", "128", "--tol", "1e-6"],
    "em-check-21-5": ["em-check", "--k", "21", "--a", "5", "--bits", "128", "--tol", "1e-6"],
    "verify-em-remainder-128": ["verify", "--suite", "em-remainder", "--bits", "128"],
    # the walk stops below depth k - 1 (d = 29 and 34)
    "em-check-40-4": ["em-check", "--k", "40", "--a", "4", "--bits", "64", "--tol", "1e-3"],
    "em-check-60-5": ["em-check", "--k", "60", "--a", "5", "--bits", "64", "--tol", "1e-3"],
    # the closed form at 288 and 232 working bits
    "em-check-25-7-256": ["em-check", "--k", "25", "--a", "7", "--bits", "256", "--tol", "1e-3"],
    "verify-em-remainder-200": ["verify", "--suite", "em-remainder", "--bits", "200"],
    "decay": ["decay", "--table", "a40.tbl", "--kmin", "5", "--kmax", "30"],
    "cache-info": ["cache-info", "--table", "a40.tbl"],
}

# (exit code, first 16 hex digits of the sha256 of the output)
GOLDEN_OUTPUT = {
    "coeff": (0, "4c88b391102f21a3"),
    "bk-csv": (0, "1ecd24cb8941af51"),
    "bk-json": (0, "a150039ffeed0fc2"),
    "bk-600-160": (0, "9d3b89ecbc87f42b"),
    "bk-40-128": (0, "e3606030ea62ecd6"),
    "bk-17-256": (0, "62d16886b1bd671d"),
    "eval-4": (0, "114d921de1610163"),
    "eval-critical": (3, "b30f40de76873276"),
    "eval-pole": (3, "8e4eb41513fcfe92"),
    "eval-critical-200": (3, "b30f40de76873276"),
    "eval-left": (3, "90146112b3f0ff13"),
    "eval-tol-below-table": (2, "e3b0c44298fc1c14"),
    "verify-truncation": (0, "3d3d0b2497cbe6d2"),
    "verify-cross-identity": (0, "ee3779c2bb0fd6f4"),
    "verify-em-remainder": (0, "257d34439712dd63"),
    "verify-global-agreement": (1, "891ad0bc5cf9c1bf"),
    "em-check": (0, "0f05890b13f5ec30"),
    "em-check-10-4": (0, "7e0eeb1017d1dbb0"),
    "em-check-17-5": (0, "d8fcdc9cdaa7b501"),
    "em-check-21-5": (0, "7d2aa01577c46d48"),
    "verify-em-remainder-128": (0, "257d34439712dd63"),
    "em-check-40-4": (0, "2603d280e7bd223d"),
    "em-check-60-5": (0, "92e4b4f3df387559"),
    "em-check-25-7-256": (0, "e732cfcd2f6f6a63"),
    "verify-em-remainder-200": (0, "257d34439712dd63"),
    "decay": (0, "e8755e846d6f1755"),
    "cache-info": (0, "fce6433f00f5878a"),
}


# first 16 hex digits of the sha256 of each GOLDEN_ARGV entry's stderr
GOLDEN_STDERR = {
    "coeff": "d609039ba6fa28ab",
    "bk-csv": "e3b0c44298fc1c14",
    "bk-json": "e3b0c44298fc1c14",
    "bk-600-160": "e3b0c44298fc1c14",
    "bk-40-128": "e3b0c44298fc1c14",
    "bk-17-256": "e3b0c44298fc1c14",
    "eval-4": "e3b0c44298fc1c14",
    "eval-critical": "9ecb522798e306c6",
    "eval-pole": "9ecb522798e306c6",
    "eval-critical-200": "9ecb522798e306c6",
    "eval-left": "9ecb522798e306c6",
    "eval-tol-below-table": "fbe5cf3b07d45d97",
    "verify-truncation": "e3b0c44298fc1c14",
    "verify-cross-identity": "e3b0c44298fc1c14",
    "verify-em-remainder": "e3b0c44298fc1c14",
    "verify-global-agreement": "e3b0c44298fc1c14",
    "em-check": "e3b0c44298fc1c14",
    "em-check-10-4": "e3b0c44298fc1c14",
    "em-check-17-5": "e3b0c44298fc1c14",
    "em-check-21-5": "e3b0c44298fc1c14",
    "verify-em-remainder-128": "e3b0c44298fc1c14",
    "em-check-40-4": "e3b0c44298fc1c14",
    "em-check-60-5": "e3b0c44298fc1c14",
    "em-check-25-7-256": "e3b0c44298fc1c14",
    "verify-em-remainder-200": "e3b0c44298fc1c14",
    "decay": "89dc57ec1fccf896",
    "cache-info": "e3b0c44298fc1c14",
}


def _sha16(text: str | bytes) -> str:
    data = text.encode("ascii") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """{name: (exit code, stdout or, for coeff, its file, stderr)} of GOLDEN_ARGV."""
    d = tmp_path_factory.mktemp("golden")
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(d)
        for name, argv in GOLDEN_ARGV.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            data = (d / "a40.tbl").read_bytes() if name == "coeff" else out.getvalue()
            runs[name] = (rc, data, err.getvalue())
    return runs


def test_output_bytes_and_exit_codes_are_pinned(golden_runs):
    got = {name: (rc, _sha16(out)) for name, (rc, out, _) in golden_runs.items()}
    assert got == GOLDEN_OUTPUT


def test_stderr_bytes_are_pinned(golden_runs):
    got = {name: _sha16(err) for name, (_, _, err) in golden_runs.items()}
    assert got == GOLDEN_STDERR


# --help, each CMD --help, argparse's usage errors and `verify` running every
# suite; {name: (exit code, sha256 prefix of stdout, of stderr)} at COLUMNS=80.
# The CMD --help entries come from the command table, so a command added to it
# without pinned help bytes fails.
GOLDEN_USAGE_ARGV = {
    "help": ["--help"],
    **{f"{cmd}-help": [cmd, "--help"] for cmd in cli.COMMANDS},
    "no-command": [],
    "unknown-command": ["no-such-command"],
    "eval-no-table": ["eval", "--s", "4+0i"],
    "coeff-bad-kind": ["coeff", "--kind", "C", "--kmax", "4", "--out", "x"],
    "verify-bad-suite": ["verify", "--suite", "everything"],
    "verify-all": ["verify", "--table", "a40.tbl", "--bits", "64", "--nmax", "10", "--tol", "1e-3"],
}

GOLDEN_USAGE_OUTPUT = {
    "help": (0, "f124dc8f47ddc97b", "e3b0c44298fc1c14"),
    "coeff-help": (0, "cd29814ec95beecc", "e3b0c44298fc1c14"),
    "bk-help": (0, "7b7a8acaf976d026", "e3b0c44298fc1c14"),
    "eval-help": (0, "0ea42e6ccff6515b", "e3b0c44298fc1c14"),
    "verify-help": (0, "6e804f046735cf07", "e3b0c44298fc1c14"),
    "em-check-help": (0, "3237b340e59858b5", "e3b0c44298fc1c14"),
    "decay-help": (0, "f678aef169321d3f", "e3b0c44298fc1c14"),
    "cache-info-help": (0, "3b4b61bbfb368993", "e3b0c44298fc1c14"),
    "no-command": (2, "e3b0c44298fc1c14", "c6645065fd5a8cbf"),
    "unknown-command": (2, "e3b0c44298fc1c14", "f0738b3a4068bae8"),
    "eval-no-table": (2, "e3b0c44298fc1c14", "5f21b0134ec44258"),
    "coeff-bad-kind": (2, "e3b0c44298fc1c14", "e35aa2e80a4d3c4e"),
    "verify-bad-suite": (2, "e3b0c44298fc1c14", "5d6d214fda4b7210"),
    "verify-all": (1, "80e43b6ed00c3f4c", "e3b0c44298fc1c14"),
}


def test_help_usage_and_verify_all_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run(GOLDEN_ARGV["coeff"]) == cli.EXIT_OK
    capsys.readouterr()
    got = {}
    for name, argv in GOLDEN_USAGE_ARGV.items():
        rc = cli.run(argv)
        cap = capsys.readouterr()
        got[name] = (rc, _sha16(cap.out), _sha16(cap.err))
    assert got == GOLDEN_USAGE_OUTPUT


class TestEmCheck:
    def test_remainder_matches_coefficient(self, capsys):
        rc = cli.run(["em-check", "--k", "8", "--a", "2", "--bits", "64",
                      "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "a_k(8) = " in out
        assert "em_remainder(k=8, a=2) = " in out
        assert "rel_diff = " in out

    def test_unmet_tolerance_exits_3(self, capsys):
        rc = cli.run(["em-check", "--k", "8", "--a", "2", "--bits", "64",
                      "--tol", "1e-30", "--quad-tol", "1e-12"])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_NUMERIC
        assert "not met" in cap.err

    @pytest.mark.parametrize("k,a", [(3, 1000), (3, 3), (8, 1), (120, 0)])
    def test_bad_pair_is_rejected_before_any_work(self, k, a, monkeypatch, capsys):
        # A_k's exact head, which em-check asks for first, is not built
        # for a usage error: the pair is checked before it
        def never(*args):
            raise AssertionError("called for a usage error")

        monkeypatch.setattr(coefficients, "_single_index", never)
        rc = cli.run(["em-check", "--k", str(k), "--a", str(a)])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert "error: need 2 <= a < k" in cap.err
        assert cap.out == ""

    def test_tol_just_above_the_exact_rel_passes(self, capsys):
        # this tol is the 53-bit float just above the exact rel of (12, 3) at
        # quad-tol 1e-12; rel rounded to 53 bits equals it, so comparing the
        # rounded rel failed a pair that meets its tolerance
        tol = ("0.000000000000914509565259688849007582193494895491216525873490184039837"
               "91358768939971923828125")
        rc = cli.run(["em-check", "--k", "12", "--a", "3", "--bits", "64", "--quad-tol", "1e-12",
                      "--tol", tol])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert "rel_diff = 9.1451e-13\n" in cap.out
        assert cap.err == ""

    @pytest.mark.parametrize("value,message", [
        ("0", "a positive number"), ("-1e-9", "a positive number"), ("nan", "a positive number"),
        ("-inf", "a positive number"), ("inf", "finite"), ("+INF", "finite")])
    def test_rejected_quad_tol_exits_2(self, value, message, capsys):
        rc = cli.run(["em-check", "--k", "12", "--a", "3", f"--quad-tol={value}"])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert cap.err == f"error: quad-tol must be {message}\n"
        assert cap.out == ""

    def test_quadrature_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(phik, "MAX_PANELS", 2)
        rc = cli.run(["em-check", "--k", "12", "--a", "3", "--bits", "64"])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_NUMERIC
        assert cap.out == ""
        assert cap.err.startswith("numeric failure:")

    @pytest.mark.parametrize("exponent", ["3" + "0" * 39, "1" + "0" * 39])
    def test_out_of_reach_at_a_40_digit_exponent(self, exponent, capsys):
        # the message prints the 53-bit quad-tol near 2^-(2^133), where the
        # first decimal exponent format_nstr guesses is far off or one high;
        # the digits it must print are those of the literal
        rc = cli.run(["em-check", "--k", "8", "--a", "2", "--bits", "64",
                      "--quad-tol", f"1e-{exponent}"])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_NUMERIC
        assert cap.out == ""
        assert cap.err == (f"numeric failure: tolerance 1.0e-{exponent} is out of reach at "
                           "k = 8, a = 2: the tail bound at X = 200001 needs quad_tol above "
                           "2.05393e-44\n")


def test_every_arithmetic_error_exits_3(deep_table_file, monkeypatch, capsys):
    # exit 1 is kept for a FAIL line, so no numeric error may escape run()
    from maslanka import series

    def broken(s, ctx):
        raise ArithmeticError("reference diverged")

    monkeypatch.setattr(series, "zeta_reference", broken)
    rc = cli.run(["verify", "--suite", "global-agreement", "--table", str(deep_table_file)])
    cap = capsys.readouterr()
    assert rc == cli.EXIT_NUMERIC
    assert cap.err == "numeric failure: reference diverged\n"


def test_pole_error_exits_3(deep_table_file, monkeypatch, capsys):
    # a pole is a numeric failure, not a usage error
    from maslanka import series
    from maslanka.mpnum import PoleError

    def at_pole(zr, zi, table, tol, wb):
        raise PoleError("zeta pole at s = 1")

    monkeypatch.setattr(series, "_eval_raw", at_pole)
    rc = cli.run(["eval", "--s", "1", "--table", str(deep_table_file)])
    cap = capsys.readouterr()
    assert rc == cli.EXIT_NUMERIC
    assert cap.err == "numeric failure: zeta pole at s = 1\n"


class TestNonPositiveTol:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--s", "3", "--table", "{table}"],
        ["em-check", "--k", "8", "--a", "2"],
        ["verify", "--suite", "em-remainder"],
        ["verify", "--suite", "global-agreement", "--table", "{table}"],
    ], ids=["eval", "em-check", "verify-em", "verify-global"])
    def test_rejected_with_its_own_message(self, argv, tol, small_table_file, capsys):
        argv = [a.format(table=small_table_file) for a in argv] + ["--tol", tol]
        rc = cli.run(argv)
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert "error: tol must be a positive number" in cap.err
        assert cap.out == ""


class TestNonFiniteTol:
    """An infinite tolerance would pass every check; it is a usage error."""

    @pytest.mark.parametrize("flag", ["--tol", "--quad-tol"])
    @pytest.mark.parametrize("tol", ["inf", "+inf"])
    def test_em_check(self, flag, tol, capsys):
        rc = cli.run(["em-check", "--k", "12", "--a", "3", f"{flag}={tol}"])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert f"error: {flag[2:]} must be finite" in cap.err
        assert cap.out == ""

    @pytest.mark.parametrize("argv", [
        ["eval", "--s", "3", "--table", "{table}"],
        ["verify", "--suite", "em-remainder"],
        ["verify", "--suite", "global-agreement", "--table", "{table}"],
    ], ids=["eval", "verify-em", "verify-global"])
    def test_tol(self, argv, small_table_file, capsys):
        rc = cli.run([a.format(table=small_table_file) for a in argv] + ["--tol", "inf"])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert "error: tol must be finite" in cap.err
        assert cap.out == ""

    def test_quad_tol_takes_the_positive_check(self, capsys):
        rc = cli.run(["em-check", "--k", "12", "--a", "3", "--quad-tol=-1e-9"])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert "error: quad-tol must be a positive number" in cap.err
        assert cap.out == ""


_EM = ["em-check", "--k", "8", "--a", "2", "--bits", "64"]
_EM_OUT = ("a_k(8) = -5.600136284920295363068e-3\n"
           "em_remainder(k=8, a=2) = -5.599818280776897302628e-3\nrel_diff = 5.67851e-5\n")
_TINY_S_OUT = ("s = +1.0000000000000000000000000000000000000000e-{}\n"
               "value = +4.9999999586234982606170529303648842206386e-1\n"
               "zeta_value = -4.9999999586234982606170529303648842206386e-1\n"
               "terms_used = 401\n"
               "residual_estimate = +6.2920691154450975099231303989660615431640e-9\n"
               "converged = false\n")
_EXHAUSTED = "warning: table exhausted before tolerance was met\n"
# literals far out in exponent, and (stdout, stderr, exit code) as the
# commands printed them when they still formed integers as wide as the
# exponent, in up to 37 s and 1.7 GB; at s = 1e-1000000000 that ran out of
# memory, and the sweep sums what it sums at s = 0, whose value it prints
FAR_EXPONENTS = {
    "eval-s-1e-10000000": (["eval", "--tol", "1e-8", "--s", "1e-10000000"],
                           _TINY_S_OUT.format(10000000), _EXHAUSTED, 3),
    "eval-s-1e-1000000000": (["eval", "--tol", "1e-8", "--s", "1e-1000000000"],
                             _TINY_S_OUT.format(1000000000), _EXHAUSTED, 3),
    "eval-tol-1e+1000000000": (
        ["eval", "--s", "0.5", "--tol", "1e+1000000000"],
        "s = +5.0000000000000000000000000000000000000000e-1\n"
        "value = +4.4340734113433533291571822441291629988993e-1\n"
        "zeta_value = -8.8681468226867066583143644882583259977987e-1\n"
        "terms_used = 2\n"
        "residual_estimate = +0.0000000000000000000000000000000000000000e+0\n"
        "converged = true\n", "", 0),
    "eval-tol-1e-1000000000": (["eval", "--s", "0.5", "--tol", "1e-1000000000"], "",
                               "error: tol is below what the table's target_bits can support\n", 2),
    "em-quad-tol-1e+1000000000": (_EM + ["--quad-tol", "1e+1000000000"], _EM_OUT,
                                  "tolerance 1e-6 not met\n", 3),
    "em-quad-tol-1e-1000000000": (
        _EM + ["--quad-tol", "1e-1000000000"], "",
        "numeric failure: tolerance 1.0e-1000000000 is out of reach at k = 8, a = 2: the tail "
        "bound at X = 200001 needs quad_tol above 2.05393e-44\n", 3),
    "em-tol-1e+1000000000": (_EM + ["--tol", "1e+1000000000"], _EM_OUT, "", 0),
}


def _limited_run(argv: list[str], mb: int = 512, seconds: float = 5) -> tuple:
    """(stdout, stderr, exit code) of the command in a fresh interpreter whose
    address space is limited to `mb` MB, killed after `seconds`."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "maslanka.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=seconds, preexec_fn=limit)
    return proc.stdout, proc.stderr, proc.returncode


class TestFarExponents:
    """A literal of any exponent costs integers of a width set by the
    precision: every decision is taken from exponents before any shift."""

    @pytest.mark.parametrize("name", list(FAR_EXPONENTS))
    def test_prints_what_the_exact_route_printed(self, name, deep_table_file):
        argv, *want = FAR_EXPONENTS[name]
        if argv[0] == "eval":
            argv = argv + ["--table", str(deep_table_file)]
        assert _limited_run(argv) == tuple(want)


class TestLiteralGrammar:
    """--s, --tol and --quad-tol follow one decimal grammar; p/q, a trailing l
    and underscores, which mpmath's from_str takes, are usage errors (1/0 was
    a bare ZeroDivisionError, exit 3 with an empty message)."""

    @pytest.mark.parametrize("text", ["1/0", "1/3", "2l", "1L", "1_0"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--s", "{x}", "--table", "{table}", "--tol", "1e-6"],
        ["eval", "--s", "3", "--table", "{table}", "--tol", "{x}"],
        ["em-check", "--k", "8", "--a", "2", "--tol", "{x}"],
        ["em-check", "--k", "8", "--a", "2", "--quad-tol", "{x}"],
        ["verify", "--suite", "em-remainder", "--tol", "{x}"],
    ], ids=["eval-s", "eval-tol", "em-check-tol", "em-check-quad-tol", "verify-tol"])
    def test_exits_2(self, argv, text, small_table_file, capsys):
        rc = cli.run([a.format(x=text, table=small_table_file) for a in argv])
        cap = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert cap.err == f"error: not a decimal number: {text!r}\n"
        assert cap.out == ""

    @pytest.mark.parametrize("text,want", [
        ("1e-6", "1e-6"), (" +.5E+3 ", "500"), ("7.", "7"), ("-0", "0"), ("0.1", "0.1"),
        ("1e-400", "1e-400"),
        ("123456789012345678901234567890e-10", "12345678901234567890.123456789"),
    ])
    @pytest.mark.parametrize("bits", [16, 53, 160])
    def test_reads_as_mpmath_rounds(self, text, want, bits):
        from maslanka.mpnum import parse_decimal

        with mp.workprec(bits):
            assert parse_decimal(text, bits) == mpf(want)._mpf_

    @pytest.mark.parametrize("text", ["inf", "+INF", " -inf", "NaN"])
    def test_specials_are_mpmaths(self, text):
        from maslanka.mpnum import parse_decimal

        assert parse_decimal(text, 53) == mpf(text.strip())._mpf_

    @pytest.mark.parametrize("text", ["", ".", "+", "e5", "1e", "1.5.2", "0x10", "1e5.0",
                                      "infinity", "+nan", "\u0661", "1 2"])
    def test_rejects(self, text):
        from maslanka.mpnum import parse_decimal

        with pytest.raises(ValueError, match="not a decimal number"):
            parse_decimal(text, 53)


def _fresh_words(code: str) -> list[str]:
    """What `code` prints, split into words, run by a fresh interpreter on src/."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _modules_after(argv: list[str], expected_rc: int = 0) -> set[str]:
    """sys.modules of a fresh interpreter once it has run cli.run(argv), which
    must exit with expected_rc."""
    code = ("import io, sys\n"
            "from maslanka import cli\n"
            "out, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()\n"
            f"rc = cli.run({argv!r})\n"
            "print(rc, *sys.modules, file=out)")
    rc, *modules = _fresh_words(code)
    assert rc == str(expected_rc), (argv, rc)
    return set(modules)


# each subcommand at a tiny size; {t} is a 65-entry kind=A table file and
# {d}/b6.tbl a 7-entry kind=b one
STARTUP_ARGV = {
    "help": ["--help"],
    "coeff": ["coeff", "--kind", "A", "--kmax", "8", "--bits", "32", "--out", "{d}/a8.tbl"],
    "bk": ["bk", "--kmax", "6", "--bits", "32"],
    "bk-table": ["bk", "--kmax", "6", "--table", "{d}/b6.tbl"],
    "eval": ["eval", "--s", "4", "--table", "{t}", "--bits", "64", "--tol", "1e-6"],
    # the table runs out: exit 3
    "eval-exhausted": ["eval", "--s", "0.5+14.134725i", "--table", "{t}", "--tol", "1e-6"],
    "verify": ["verify", "--suite", "truncation", "--nmax", "4", "--table", "{t}"],
    "em-check": ["em-check", "--k", "8", "--a", "2", "--bits", "64"],
    "verify-cross": ["verify", "--suite", "cross-identity", "--bits", "64"],
    "verify-em": ["verify", "--suite", "em-remainder", "--bits", "64"],
    "decay": ["decay", "--table", "{t}", "--kmin", "5", "--kmax", "30"],
    "cache-info": ["cache-info", "--table", "{t}"],
}


@pytest.fixture(scope="module")
def startup_modules(small_table_file, tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    save_table(coefficients.build_table("b", 6, PrecisionContext(32)), d / "b6.tbl")
    return {name: _modules_after([arg.format(t=small_table_file, d=d) for arg in argv],
                                 3 if name == "eval-exhausted" else 0)
            for name, argv in STARTUP_ARGV.items()}


def _package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "maslanka" or m.startswith("maslanka.")}


class TestStartup:
    """Each subcommand imports only the modules it runs."""

    def test_cli_import_leaves_numpy_out(self, startup_modules):
        assert all("numpy" not in mods for mods in startup_modules.values())

    def test_cli_import_leaves_openssl_out(self, startup_modules):
        # the table checksum takes CPython's built-in SHA-256 wherever the
        # build has one, so OpenSSL (_hashlib) is not mapped
        builtin = any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2"))
        assert "maslanka.coefficients" in startup_modules["cache-info"]
        assert not (builtin and any("_hashlib" in mods for mods in startup_modules.values()))

    def test_help_loads_no_mpmath_and_no_submodule(self, startup_modules):
        mods = startup_modules["help"]
        assert "mpmath" not in mods
        assert _package_modules(mods) == {"maslanka", "maslanka.cli"}

    def test_em_check_loads_no_series_analysis_or_output_formats(self, startup_modules):
        mods = startup_modules["em-check"]
        assert "maslanka.phik" in mods
        left_out = {"maslanka.series", "maslanka.analysis", "maslanka.pochhammer",
                    "statistics", "json", "csv", "dataclasses"}
        assert not left_out & mods

    @pytest.mark.parametrize("name", ["coeff", "cache-info", "bk", "bk-table", "eval",
                                      "eval-exhausted"])
    def test_table_commands_load_no_mpmath(self, name, startup_modules):
        # tables are built, saved, loaded and printed in Python integers, bk's
        # scaled columns formed in them, and eval's literals read, summed and
        # rounded in them
        mods = startup_modules[name]
        assert "maslanka.coefficients" in mods
        assert "mpmath" not in mods

    @pytest.mark.parametrize("name", ["em-check", "verify", "verify-cross", "verify-em"])
    def test_crosscheck_commands_load_no_mpmath(self, name, startup_modules):
        # the remainder integral, both A_k routes and the truncation sides are
        # integers, and each rel is rounded and printed from raw tuples
        assert "mpmath" not in startup_modules[name]

    def test_crosscheck_goldens_load_no_mpmath(self, tmp_path):
        # every em-check golden and the three suites' goldens, one after
        # another in one fresh interpreter: (exit code, mpmath loaded) after each
        names = [name for name in GOLDEN_ARGV if name.startswith(
            ("em-check", "verify-truncation", "verify-cross-identity", "verify-em-remainder"))]
        code = ("import io, os, sys\n"
                f"os.chdir({str(tmp_path)!r})\n"
                "from maslanka import cli\n"
                "out, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()\n"
                f"cli.run({GOLDEN_ARGV['coeff']!r})\n"
                f"for argv in {[GOLDEN_ARGV[name] for name in names]!r}:\n"
                "    print(cli.run(argv), 'mpmath' in sys.modules, file=out)")
        want = [word for name in names for word in (str(GOLDEN_OUTPUT[name][0]), "False")]
        assert len(names) == 12 and _fresh_words(code) == want

    def test_phik_import_loads_no_mpmath(self):
        mods = set(_fresh_words("import sys, maslanka.phik\nprint(*sys.modules)"))
        assert "maslanka.phik" in mods
        assert "mpmath" not in mods

    def test_series_and_pochhammer_import_load_no_mpmath(self):
        mods = set(_fresh_words("import sys, maslanka.series, maslanka.pochhammer\n"
                                "print(*sys.modules)"))
        assert {"maslanka.series", "maslanka.pochhammer"} <= mods
        assert "mpmath" not in mods

    def test_analysis_import_loads_no_mpmath(self):
        mods = set(_fresh_words("import sys, maslanka.analysis\nprint(*sys.modules)"))
        assert "maslanka.analysis" in mods
        assert "mpmath" not in mods

    def test_sup_bound_loads_no_mpmath(self):
        # the exact bound of the Euler-Maclaurin cut is formed in integers
        code = ("import sys\n"
                "from maslanka.bernoulli import periodified_sup_bound\n"
                "print(periodified_sup_bound(5), *sys.modules)")
        bound, *mods = _fresh_words(code)
        assert "/" in bound
        assert "maslanka.bernoulli" in mods
        assert "mpmath" not in mods

    @pytest.mark.parametrize("name", ["eval", "eval-exhausted", "cache-info"])
    def test_table_reads_load_no_phik_or_analysis(self, name, startup_modules):
        mods = startup_modules[name]
        assert "maslanka.coefficients" in mods
        assert not {"maslanka.phik", "maslanka.analysis"} & mods

    def test_no_command_loads_dataclasses_inspect_or_statistics(self, startup_modules):
        loaded = {name: sorted({"dataclasses", "inspect", "statistics"} & mods)
                  for name, mods in startup_modules.items()}
        assert loaded == {name: [] for name in STARTUP_ARGV}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["no-such-command"],
        ["eval", "--s", "4+0i"],              # missing --table
        ["coeff", "--kind", "C", "--kmax", "4", "--out", "x"],
        ["verify", "--suite", "everything"],
    ])
    def test_argparse_rejections(self, argv, capsys):
        assert cli.run(argv) == cli.EXIT_USAGE
        capsys.readouterr()
