"""Per-mode block algebra: eigenstructure, divided differences, regions."""

import numpy as np
import pytest
import scipy.linalg

from mhd2d.errors import SingularBasisError
from mhd2d.modes import (
    E2,
    E4,
    AuditRow,
    anisotropic_decompose,
    classify_region,
    divided_difference,
    eigenvalues,
    lemma_bounds_audit,
    mode_system,
    region_masks,
    scan_lemma_bounds,
    sqrt_discriminant,
    symbol_matrix,
)

# Reference values computed with mpmath at 50 decimal digits:
#   s = sqrt(1 - 4 x^2), lam_pm = (1 -+ s)/2,
#   D = (exp(-lam_minus t) - exp(-lam_plus t)) / (lam_plus - lam_minus),
#   D = t exp(-t/2) at the confluent point x = 1/2.
DIVIDED_DIFF_ORACLE = [
    (0.5, 1.0, 0.60653065971263342),
    (0.5, 10.0, 0.067379469990854671),
    (0.5, 100.0, 1.9287498479639178e-20),
    (0.499999, 1.0, 0.60653076080098068),
    (0.499999, 10.0, 0.067380592986513152),
    (0.499999, 100.0, 1.9319660355003404e-20),
    (0.500001, 1.0, 0.6065305586240941),
    (0.500001, 10.0, 0.067378347004180119),
    (0.500001, 100.0, 1.9255368685815129e-20),
    (0.499999999, 1.0, 0.60653065981372187),
    (0.499999999, 10.0, 0.067379471113845842),
    (0.499999999, 100.0, 1.9287530625486018e-20),
    (0.500000001, 1.0, 0.60653065961154498),
    (0.500000001, 10.0, 0.067379468867863509),
    (0.500000001, 100.0, 1.9287466333824419e-20),
    (1.0e-8, 1.0, 0.63212055882855767),
    (1.0e-8, 10.0, 0.99995460007023672),
    (1.0e-8, 100.0, 0.9999999999999902),
    (0.3, 1.0, 0.62283469786920058),
    (0.3, 10.0, 0.45969503920919455),
    (0.3, 100.0, 5.6749912203106064e-5),
    (1.7, 1.0, 0.37274945721461132),
    (1.7, 10.0, -0.0021324845136691185),
    (1.7, 100.0, -9.1646446110187437e-23),
    # |t s| at 5e-4, 1e-3 and 2e-3, around the confluent switch, for real
    # (xi1 < 1/2) and imaginary (xi1 > 1/2) s
    (0.4999999375, 1.0, 0.6065306660306607),
    (0.49999975, 1.0, 0.6065306849847383),
    (0.49999975, 2.0, 0.7357590049693405),
    (0.5000000625, 1.0, 0.6065306533946053),
    (0.50000025, 1.0, 0.6065306344405166),
    (0.50000025, 2.0, 0.7357587597163797),
]

# Same script: lam_minus = 2 x^2 / (1 + sqrt(1 - 4 x^2)), real branch.
STABLE_EIG_ORACLE = [
    (1.0e-8, 1.0000000000000001e-16),
    (1.0e-4, 1.0000000100000002e-8),
    (0.3, 0.1),
    (0.49, 0.400501256289338),
    (0.4999999, 0.49968377224979455),
]

XI1_SWEEP = np.concatenate([
    np.linspace(-2.5, 2.5, 201),
    np.array([1e-10, -1e-10, 0.25, 0.5 - 1e-9, 0.5 + 1e-9, 0.75]),
])


def nondegenerate(values):
    vals = np.asarray(values)
    keep = (np.abs(np.abs(vals) - 0.5) > 1e-12) & (np.abs(vals) > 1e-12)
    return vals[keep]


def test_stable_eigenvalue_oracle():
    for x, expect in STABLE_EIG_ORACLE:
        lam_m, _ = eigenvalues(x)
        assert lam_m.imag == 0.0
        assert lam_m.real == pytest.approx(expect, rel=1e-14), x


def test_eigenvalues_satisfy_characteristic_polynomial():
    for x in XI1_SWEEP:
        lam_m, lam_p = eigenvalues(x)
        for lam in (lam_m, lam_p):
            res = lam * lam - lam + x * x
            assert abs(res) < 1e-13 * max(1.0, abs(lam) ** 2), x
        assert (lam_m + lam_p).real == pytest.approx(1.0, abs=1e-13)
        assert abs(lam_m * lam_p - x * x) < 1e-12 * max(1.0, x * x)


def test_eigenvalue_branches():
    for x in XI1_SWEEP:
        lam_m, lam_p = eigenvalues(x)
        assert lam_m.real <= lam_p.real + 1e-15
        if abs(x) > 0:
            assert lam_m.real > 0.0
    # no cancellation in the small-xi1 quadratic asymptote
    lam_m, _ = eigenvalues(1e-6)
    assert lam_m.real == pytest.approx(1e-12, rel=1e-6)
    # complex pair off the real axis for |xi1| > 1/2
    lam_m, lam_p = eigenvalues(0.8)
    assert lam_m.imag < 0.0 < lam_p.imag
    assert lam_m.real == pytest.approx(0.5, rel=1e-14)


def test_sqrt_discriminant_branch():
    assert sqrt_discriminant(0.3) == pytest.approx(0.8, rel=1e-14)
    z = sqrt_discriminant(1.3)
    assert z.real == pytest.approx(0.0, abs=1e-14)
    assert z.imag > 0.0


def test_symbol_matrix_and_eigenvector_residual():
    for x in XI1_SWEEP:
        K = symbol_matrix(x)
        assert np.array_equal(K, K.T)  # complex symmetric, not Hermitian
        sys = mode_system(x)
        for sign in (+1, -1):
            for j in (1, 2):
                v = sys.eigenvector(sign, j)
                lam = sys.lam_plus if sign > 0 else sys.lam_minus
                res = K @ v - lam * v
                assert np.max(np.abs(res)) < 1e-12 * max(1.0, abs(x)), (x, sign, j)


def test_eigenvalues_match_numpy_eig():
    for x in (0.1, 0.3, 0.49, 0.51, 1.0, 2.0):
        lam_m, lam_p = eigenvalues(x)
        ref = np.sort_complex(np.linalg.eigvals(symbol_matrix(x)))
        # doubled spectrum: each eigenvalue appears twice
        got = np.sort_complex(np.array([lam_m, lam_m, lam_p, lam_p]))
        assert np.max(np.abs(got - ref)) < 1e-12


def test_reconstruct_inverts_coefficients():
    rng = np.random.default_rng(0)
    for x in nondegenerate(XI1_SWEEP):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sys = mode_system(x)
        back = sys.reconstruct(u)
        assert np.max(np.abs(back - u)) < 1e-9 * np.max(np.abs(u)), x


def test_recon_vectors_are_dual():
    sys = mode_system(0.37)
    for sign_a in (+1, -1):
        for j_a in (1, 2):
            for sign_b in (+1, -1):
                for j_b in (1, 2):
                    val = np.dot(sys.eigenvector(sign_a, j_a), sys.recon_vector(sign_b, j_b))
                    want = 1.0 if (sign_a, j_a) == (sign_b, j_b) else 0.0
                    assert abs(val - want) < 1e-13


def test_degenerate_points_flagged():
    for x in (0.0, 0.5, -0.5):
        sys = mode_system(x)
        assert sys.degenerate
        with pytest.raises(SingularBasisError):
            sys.recon_vector(+1, 1)
        with pytest.raises(SingularBasisError):
            sys.reconstruct(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    assert not mode_system(0.51).degenerate


def test_divided_difference_oracle():
    for x, t, expect in DIVIDED_DIFF_ORACLE:
        got = divided_difference(x, t)
        assert abs(got.imag) < 1e-14 * max(1.0, abs(got.real)), (x, t)
        assert got.real == pytest.approx(expect, rel=1e-9), (x, t)


def test_divided_difference_confluent_value():
    assert divided_difference(0.5, 0.5).real == pytest.approx(0.5 * np.exp(-0.25), rel=1e-13)
    assert abs(divided_difference(0.5, 0.0)) < 1e-15


def test_divided_difference_vectorized():
    xs = np.array([0.3, 0.5, 0.500001, 1.7])
    got = divided_difference(xs, 10.0)
    for i, x in enumerate(xs):
        assert got[i] == divided_difference(float(x), 10.0)


def test_anisotropic_decompose_matches_matrix_exponential():
    rng = np.random.default_rng(1)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    # includes the three degenerate points where the naive eigen-sum is 0/0
    for x in np.concatenate([nondegenerate(XI1_SWEEP)[::10], [0.0, 0.5, -0.5]]):
        K = symbol_matrix(float(x))
        for t in (0.0, 0.7, 5.0):
            full = scipy.linalg.expm(-t * K) @ f
            for row, idx in ((E2, 1), (E4, 3)):
                res, damped = anisotropic_decompose(f, float(x), t, row)
                got = complex(res) + complex(damped)
                assert abs(got - full[idx]) < 1e-12 * max(1.0, np.max(np.abs(full))), (x, t, row)


def test_anisotropic_decompose_input_checks():
    f = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        anisotropic_decompose(f, 0.3, 1.0, "e3")
    with pytest.raises(ValueError):
        anisotropic_decompose(np.ones(3, dtype=complex), 0.3, 1.0, E2)


def test_classify_region_boundaries():
    assert classify_region(0.75) == 1
    assert classify_region(0.5) == 1
    assert classify_region(-0.5) == 1
    assert classify_region(0.3) == 2
    assert classify_region(0.25) == 2
    assert classify_region(-0.25) == 2
    assert classify_region(0.1) == 3
    assert classify_region(0.0) == 3
    # vector input uses the first component
    assert classify_region(np.array([0.6, 0.0])) == 1


def test_region_masks_partition():
    xi1 = np.linspace(-3.0, 3.0, 401)
    r1, r2, r3 = region_masks(xi1)
    total = r1.astype(int) + r2.astype(int) + r3.astype(int)
    assert np.all(total == 1)
    assert np.all(np.abs(xi1[r1]) >= 0.5)
    assert np.all((np.abs(xi1[r2]) >= 0.25) & (np.abs(xi1[r2]) < 0.5))
    assert np.all(np.abs(xi1[r3]) < 0.25)


def test_audit_row_ratio():
    assert AuditRow("omg1", 0.6, 1.0, 2.0, 4.0).ratio == 0.5
    assert AuditRow("omg1", 0.6, 1.0, 0.0, 0.0).ratio == 0.0
    assert AuditRow("omg1", 0.6, 1.0, 1.0, 0.0).ratio == np.inf


def test_lemma_bounds_audit_row_selection():
    f = np.array([0.3, -1.1, 0.7, 0.4], dtype=complex)
    assert [r.inequality for r in lemma_bounds_audit(f, 0.8, 1.0)] == ["omg1"]
    assert [r.inequality for r in lemma_bounds_audit(f, 0.3, 1.0)] == ["omg2"]
    names = {r.inequality for r in lemma_bounds_audit(f, 0.1, 1.0)}
    assert names == {"omg4", "omg3"}
    for row in lemma_bounds_audit(f, 0.1, 2.5):
        assert row.t == 2.5 and row.xi1 == 0.1
        assert row.lhs >= 0.0 and row.rhs >= 0.0


def test_middle_strip_envelope_tracks_slow_eigenvalue():
    # on 1/4 <= |xi1| < 1/2 the slow rate dips to ~0.067, so the envelope
    # must use rate 1/16 with a linear prefactor; a rate-1/4 envelope is
    # violated by orders of magnitude at large t
    f = np.array([0.1, 0.9, -0.3, 0.6], dtype=complex)
    for x in (0.25, 0.3, 0.45):
        for t in (1.0, 10.0, 100.0, 500.0):
            (row,) = lemma_bounds_audit(f, x, t)
            assert row.inequality == "omg2"
            assert row.rhs == pytest.approx(
                (1.0 + t) * np.exp(-t / 16.0) * np.linalg.norm(f), rel=1e-13
            )
            assert row.ratio <= 3.0, (x, t)
    # rate 1/4 really is attained on the outer strip
    for t in (10.0, 100.0):
        (row,) = lemma_bounds_audit(f, 0.8, t)
        assert row.rhs == pytest.approx(np.exp(-t / 4.0) * np.linalg.norm(f), rel=1e-13)
        assert row.ratio <= 5.0


def test_scan_lemma_bounds_deterministic_and_capped():
    xi1 = np.linspace(0.01, 1.5, 40)
    times = np.geomspace(0.1, 100.0, 8)
    summary, rows = scan_lemma_bounds(xi1, times, n_samples=5, seed=3)
    summary2, _ = scan_lemma_bounds(xi1, times, n_samples=5, seed=3)
    assert set(summary) == {"omg1", "omg2", "omg3", "omg4"}
    for name, info in summary.items():
        assert np.isfinite(info["max_ratio"]), name
        assert info["max_ratio"] == summary2[name]["max_ratio"]
        assert info["max_ratio"] <= 1e3
    assert all(np.isfinite(r.ratio) for r in rows)
    assert all(r.inequality in summary for r in rows)
