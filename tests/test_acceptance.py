"""End-to-end acceptance checks: one test per criterion, one summary line each.

Every test prints

    ACCEPTANCE NN <name>: PASS/FAIL (<measured numbers>)

with capturing suspended, so the lines are visible in the live pytest output
and in any tee'd log.  A FAIL line always comes with an ordinary assertion
failure -- nothing here is xfailed or skipped.  Two checks are currently red
by design of their stated tolerances; see the assertion messages for the
measured gap.
"""

import mpmath
from mpmath import mp, mpf

from maslanka.analysis import decay_fit, rh_diagnostic
from maslanka.coefficients import (
    CoefficientTable,
    a_k,
    a_k_alt,
    required_bits_for_alternating_sum,
)
from maslanka.phik import build_paj, deriv_l1_norm, em_remainder_a_k
from maslanka.pochhammer import pochhammer_bound_probe
from maslanka.series import maslanka_eval, truncation_check, zeta_reference


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return line


def _n(x, d: int = 4) -> str:
    return mpmath.nstr(x, d)


def test_01_truncation_identities(table_a400_128, ctx128, capsys):
    """(2n-1) zeta(2n) against the n-term triangular sum, n = 1..20."""
    with mp.workprec(200):
        worst = mp.zero
        for n in range(1, 21):
            lhs, rhs = truncation_check(n, table_a400_128, ctx128)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        ok = worst < mpf(2) ** -120
    line = _report(capsys, 1, "truncation identities", ok,
                   f"worst rel diff {_n(worst)} over n=1..20, tol 2^-120")
    assert ok, line


def test_02_coefficient_cross_identity(ctx128, capsys):
    """Two independent alternating sums for A_k agree, k = 1..100."""
    with mp.workprec(200):
        worst = mp.zero
        for k in range(1, 101):
            va, vb = a_k(k, ctx128), a_k_alt(k, ctx128)
            worst = max(worst, abs(va - vb) / abs(va))
        ok = worst < mpf(2) ** -120
    line = _report(capsys, 2, "coefficient cross identity", ok,
                   f"worst rel diff {_n(worst)} over k=1..100, tol 2^-120")
    assert ok, line


def test_03_remainder_integral_agreement(ctx128, capsys):
    """A_k recomputed as the depth-a remainder integral, four (k, a) pairs."""
    paj = build_paj(5)
    tol = mpf("1e-6")
    worst = mp.zero
    for k, a in ((8, 2), (12, 3), (16, 2), (16, 4)):
        ref = a_k(k, ctx128)
        val = em_remainder_a_k(k, a, paj, ctx128, abs(ref) * mpf("1e-8"))
        worst = max(worst, abs(val - ref) / abs(ref))
    ok = worst < tol
    line = _report(capsys, 3, "remainder integral agreement", ok,
                   f"worst rel diff {_n(worst)} over four (k,a) pairs, tol 1e-6")
    assert ok, line


def test_04_global_evaluation_tolerance(table_a400_128, ctx128, capsys):
    """Series vs reference zeta at six probes, plus the s=0 and s=1 identities,
    all at 1e-20 absolute with the 400-term table."""
    tol = mpf("1e-20")
    probes = [mpf(3), mpf("0.5"), mpmath.mpc("0.5", "14.134725"),
              mpf(-1), mpf("-2.5"), mpmath.mpc(5, 10)]
    with mp.workprec(200):
        errs = []
        for s in probes:
            r = maslanka_eval(s, table_a400_128, tol, ctx128)
            errs.append(abs(r.zeta_value - zeta_reference(s, ctx128)))
        r0 = maslanka_eval(mpf(0), table_a400_128, tol, ctx128)
        errs.append(abs(r0.value - mpf(1) / 2))
        r1 = maslanka_eval(mpf(1), table_a400_128, tol, ctx128)
        errs.append(abs(r1.value - 1))
        worst = max(errs)
    ok = worst < tol
    line = _report(capsys, 4, "global evaluation tolerance", ok,
                   f"worst abs err {_n(worst)} over 8 checks vs tol 1e-20; "
                   f"401 terms leave a ~{_n(errs[6], 2)} tail even at s=0")
    assert ok, line


def test_05_weighted_decay_dominance(table_a200_256, capsys):
    """|A_k| k^p maxima must drop from [20,100] to [100,200] for p=2,4,8,
    and the log-log slope must steepen from [50,100] to [100,200]."""
    parts = []
    ok = True
    with mp.workprec(320):
        for p in (2, 4, 8):
            lo = max(abs(table_a200_256.values[k]) * mpf(k) ** p
                     for k in range(20, 101))
            hi = max(abs(table_a200_256.values[k]) * mpf(k) ** p
                     for k in range(100, 201))
            good = hi < lo
            ok &= good
            parts.append(f"p={p}: {_n(hi, 3)} {'<' if good else '>='} {_n(lo, 3)}")
    s_lo = decay_fit(table_a200_256, 50, 100).slope
    s_hi = decay_fit(table_a200_256, 100, 200).slope
    good = s_hi < s_lo
    ok &= good
    parts.append(f"slope {s_hi:.2f} {'<' if good else '>='} {s_lo:.2f}")
    line = _report(capsys, 5, "weighted decay dominance", ok, "; ".join(parts))
    assert ok, line


def test_06_derivative_l1_ratio(ctx128, capsys):
    """L1 norm of the a-th derivative falls by at least (1/4)^(a/4)/1.5
    from k=100 to k=400, a = 2 and 3."""
    parts = []
    ok = True
    for a in (2, 3):
        ratio = deriv_l1_norm(400, a, ctx128) / deriv_l1_norm(100, a, ctx128)
        bound = mpf(1) / 4 ** (mpf(a) / 4) * mpf("1.5")
        good = ratio <= bound
        ok &= good
        parts.append(f"a={a}: {_n(ratio, 3)} {'<=' if good else '>'} {_n(bound, 3)}")
    line = _report(capsys, 6, "derivative L1-norm ratio", ok, "; ".join(parts))
    assert ok, line


def test_07_weighted_product_sup_stabilizes(ctx128, capsys):
    """Running sup of |P_k(s)| k^Re(s) moves under 1% between k=10^3 and 10^4."""
    parts = []
    ok = True
    for s in (mpf("0.5"), mpmath.mpc(2, 1), mpf("-1.5")):
        s3 = pochhammer_bound_probe(s, 10 ** 3, ctx128)
        s4 = pochhammer_bound_probe(s, 10 ** 4, ctx128)
        rel = abs(s4 - s3) / s4
        good = rel <= mpf("0.01")
        ok &= good
        parts.append(f"s={mpmath.nstr(s, 3)}: rel change {_n(rel, 2)}")
    line = _report(capsys, 7, "weighted product sup stabilizes", ok, "; ".join(parts))
    assert ok, line


def test_08_criterion_sequence_envelope(table_b1000_160, capsys):
    """|b_k| k^(3/4) on [100,1000]: build precision >= 1200 bits and strictly
    decreasing width-100 block maxima."""
    wbits = required_bits_for_alternating_sum(1000, table_b1000_160.target_bits)
    rows = {k: scaled for k, scaled, _ in rh_diagnostic(table_b1000_160, 100, 1000)}
    with mp.workprec(200):
        maxima = [max(rows[k] for k in range(lo, lo + 100))
                  for lo in range(100, 1000, 100)]
        decreasing = all(b < a for a, b in zip(maxima, maxima[1:]))
    ok = decreasing and wbits >= 1200
    line = _report(capsys, 8, "criterion sequence envelope", ok,
                   f"block maxima {_n(maxima[0], 3)} -> {_n(maxima[-1], 3)} over 9 "
                   f"windows, decreasing={decreasing}; build precision {wbits} bits")
    assert ok, line


def test_09_synthetic_fit_validation(capsys):
    """decay_fit recovers the exponent of exact k^-3 data to 1e-10."""
    with mp.workprec(64):
        values = tuple(mpf(1) if k == 0 else +(mpf(k) ** -3) for k in range(101))
    table = CoefficientTable(kind="A", k_max=100, target_bits=64,
                             raw=tuple(v._mpf_ for v in values),
                             error_bound_exponents=(-300,) * 101)
    fit = decay_fit(table, 2, 100)
    err = abs(fit.slope + 3)
    ok = err < 1e-10
    line = _report(capsys, 9, "synthetic fit validation", ok,
                   f"slope {fit.slope!r}, |slope+3| = {err:.3e}, tol 1e-10")
    assert ok, line
