"""Per-mode block algebra: eigenstructure, divided differences, regions."""

import numpy as np
import pytest
import scipy.linalg

from mhd2d import modes
from mhd2d.errors import SingularBasisError
from mhd2d.modes import (
    E2,
    E4,
    AuditRow,
    anisotropic_decompose,
    classify_region,
    divided_difference,
    eigenvalues,
    mode_system,
    phi_split,
    region_masks,
    scan_lemma_bounds,
    sqrt_discriminant,
)
from reference import pairwise_reconstruct, phi_fixed_series

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


def symbol(x):
    """The 4x4 symbol J of the linear system, analysis orientation."""
    c = 1j * x
    return np.array([[1.0, 0.0, c, 0.0], [0.0, 1.0, 0.0, c], [c, 0.0, 0.0, 0.0],
                     [0.0, c, 0.0, 0.0]], dtype=complex)


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
    # E_sign^j is (i xi1, -lam_other) in the slots of pair j, zero elsewhere
    for x in XI1_SWEEP:
        K = symbol(x)
        assert np.array_equal(K, K.T)  # complex symmetric, not Hermitian
        sys = mode_system(x)
        for sign in (+1, -1):
            lam, lam_other = ((sys.lam_plus, sys.lam_minus) if sign > 0
                              else (sys.lam_minus, sys.lam_plus))
            for j in (1, 2):
                v = np.zeros(4, dtype=complex)
                v[j - 1], v[j + 1] = 1j * x, -lam_other
                res = K @ v - lam * v
                assert np.max(np.abs(res)) < 1e-12 * max(1.0, abs(x)), (x, sign, j)


def test_eigenvalues_match_numpy_eig():
    for x in (0.1, 0.3, 0.49, 0.51, 1.0, 2.0):
        lam_m, lam_p = eigenvalues(x)
        ref = np.sort_complex(np.linalg.eigvals(symbol(x)))
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


def test_reconstruct_is_the_pairwise_loop_to_the_bit():
    # modes drawn as the benchmark draws them, plus points next to the
    # degenerate ones and a large wavenumber
    rng = np.random.default_rng(2024)
    pool = rng.uniform(-3.0, 3.0, 30_000)
    far = np.min(np.abs(pool[:, None] - np.array([0.0, 0.5, -0.5])), axis=1) >= 1e-3
    edges = [s * x for s in (1.0, -1.0) for x in (0.5 - 1e-9, 0.5 + 1e-9, 1e-9, 3.0)]
    xs = [float(x) for x in pool[far][:10_000]] + edges
    us = rng.normal(size=(len(xs), 4)) + 1j * rng.normal(size=(len(xs), 4))
    for x, u in zip(xs, us):
        ms = mode_system(x)
        assert ms.reconstruct(u).tobytes() == pairwise_reconstruct(ms, u).tobytes(), x


def test_degenerate_points_flagged():
    u = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    for x in (0.0, 0.5, -0.5):
        with pytest.raises(SingularBasisError):
            mode_system(x).reconstruct(u)
    assert np.all(np.isfinite(mode_system(0.51).reconstruct(u)))


def test_divided_difference_oracle():
    for x, t, expect in DIVIDED_DIFF_ORACLE:
        got = divided_difference(x, t)
        assert abs(got.imag) < 1e-14 * max(1.0, abs(got.real)), (x, t)
        assert got.real == pytest.approx(expect, rel=1e-9), (x, t)


def test_divided_difference_confluent_value():
    assert divided_difference(0.5, 0.5).real == pytest.approx(0.5 * np.exp(-0.25), rel=1e-13)
    assert abs(divided_difference(0.5, 0.0)) < 1e-15


@pytest.mark.parametrize("k", [0, 1, 2])
def test_phi_split_without_near_entries_is_the_masked_path(k):
    # an array with no entry near the collision takes one whole-array
    # quotient; adding one entry at the collision sends the same entries
    # through the masked gathers, which must give the same bits
    xi1 = np.concatenate([np.linspace(-0.25, 0.25, 64), np.linspace(0.6, 3.0, 7)])
    h = np.geomspace(1.0, 1.0e4, 11)[:, None]
    whole = phi_split(k, xi1, h, 1.0)
    masked = phi_split(k, np.append(xi1, 0.5), h, 1.0)
    assert np.min(np.abs(h * sqrt_discriminant(xi1))) >= modes._CONFLUENT_SWITCH
    for got, ref in zip(whole, masked):
        assert np.array_equal(got, ref[:, :-1])


def test_divided_difference_vectorized():
    xs = np.array([0.3, 0.5, 0.500001, 1.7])
    got = divided_difference(xs, 10.0)
    for i, x in enumerate(xs):
        assert got[i] == divided_difference(float(x), 10.0)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_phi_series_stop_keeps_every_bit(k, monkeypatch):
    # the series stops once the rest can change no entry, so every input
    # gives the bits of all 48 terms: NaN and +-inf (which take the
    # recurrence, as |z| < 2.5 is false for them), |z| just under the series
    # radius, tiny and real z, a random disc and empty arrays. The slowest
    # entry of an array sets where its series stops, so each value is also
    # taken alone; near the imaginary axis every other term is almost real,
    # and a bound on the imaginary tail from the last term's imaginary part
    # alone would stop too early there.
    below = np.nextafter(2.5, 0.0)
    edge = np.array([np.nan, complex(np.nan, 1.0), complex(1.0, np.nan), np.inf, -np.inf,
                     complex(0.0, np.inf), complex(-np.inf, 1.0), below, -below, 1j * below,
                     -1j * below, below * np.exp(0.7j), 0.0, 1e-300, -1e-300j])
    axis = np.linspace(0.05, 2.45, 49) * np.exp(0.5j * np.pi)
    rng = np.random.default_rng(k)
    disc = 2.5 * np.sqrt(rng.random(500)) * np.exp(2j * np.pi * rng.random(500))
    inputs = [edge, axis, disc, np.concatenate([disc, edge]), disc.real, np.empty(0),
              np.empty((0, 3))]
    inputs += [np.array([z]) for z in np.concatenate([edge, axis])]
    with np.errstate(all="ignore"):
        for z in inputs:
            got, want = modes._phi(k, z), phi_fixed_series(k, z)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), z
        # a stop test that never holds runs to the 48-term cap
        with monkeypatch.context() as mp:
            mp.setattr(modes.np, "spacing", np.zeros_like)
            got = modes._phi(k, disc)
        assert got.tobytes() == phi_fixed_series(k, disc).tobytes()


def test_anisotropic_decompose_matches_matrix_exponential():
    rng = np.random.default_rng(1)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    # includes the three degenerate points where the naive eigen-sum is 0/0
    for x in np.concatenate([nondegenerate(XI1_SWEEP)[::10], [0.0, 0.5, -0.5]]):
        K = symbol(float(x))
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


def test_middle_strip_envelope_tracks_slow_eigenvalue():
    # on 1/4 <= |xi1| < 1/2 the slow rate dips to ~0.067, so the envelope
    # must use rate 1/16 with a linear prefactor; a rate-1/4 envelope is
    # violated by orders of magnitude at large t
    f = np.array([0.1, 0.9, -0.3, 0.6], dtype=complex)

    def side(name, x, t):
        _, lam_p, _, dd = modes.phi_split(0, np.array([x]), t)
        mask, lhs, rhs = modes._audit_arrays(f[None], np.array([[np.linalg.norm(f)]]),
                                             np.array([x]), t, lam_p, dd)[name]
        assert mask[0], (name, x)  # x lies on the strip the inequality is stated on
        return AuditRow(name, x, t, float(lhs[0, 0]), float(rhs[0, 0]))

    for x in (0.25, 0.3, 0.45):
        for t in (1.0, 10.0, 100.0, 500.0):
            row = side("omg2", x, t)
            assert row.rhs == pytest.approx(
                (1.0 + t) * np.exp(-t / 16.0) * np.linalg.norm(f), rel=1e-13
            )
            assert row.ratio <= 3.0, (x, t)
    # rate 1/4 really is attained on the outer strip
    for t in (10.0, 100.0):
        row = side("omg1", 0.8, t)
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


def test_mode_system_matches_array_path():
    for x0 in (0.0, 1e-9, 0.25, 0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.8, 3.0):
        for x in (x0, -x0):
            ms = mode_system(x)
            lam_m, lam_p = eigenvalues(x)
            s = complex(sqrt_discriminant(x))
            assert ms.s.imag >= 0.0 and s.imag >= 0.0, x
            for got, ref in ((ms.s, s), (ms.lam_minus, lam_m), (ms.lam_plus, lam_p)):
                assert abs(got - ref) <= 1e-15 * abs(ref), (x, got, ref)


# criterion 8's grid: the confluent point and its 1e-6 neighbours included
CRITERION8_XI1 = np.unique(np.concatenate([
    np.linspace(0.005, 2.0, 100),
    [1e-3, 0.25, 0.5 - 1e-6, 0.5, 0.5 + 1e-6],
]))
CRITERION8_TIMES = np.geomspace(0.1, 1.0e4, 25)


def _sequential_scan(xi1_values, times, n_samples, seed):
    """The lemma scan as a loop over (t, sample), two decompositions each."""
    rng = np.random.default_rng(seed)
    fs = rng.standard_normal((n_samples, 4)) + 1j * rng.standard_normal((n_samples, 4))
    summary = {k: {"max_ratio": 0.0, "xi1": 0.0, "t": 0.0, "lhs": 0.0, "rhs": 0.0}
               for k in ("omg1", "omg2", "omg3", "omg4")}
    r1, r2, r3 = region_masks(xi1_values)
    best = {}
    for t in times:
        for f in fs:
            res2, _ = anisotropic_decompose(f, xi1_values, t, E2)
            res4, _ = anisotropic_decompose(f, xi1_values, t, E4)
            fnorm = float(np.linalg.norm(f))
            lhs_sum = np.abs(res2) + np.abs(res4)
            decay3 = np.exp(-(xi1_values**2) * t)
            data = {
                "omg1": (r1, lhs_sum, np.broadcast_to(np.exp(-t / 4.0) * fnorm, xi1_values.shape)),
                "omg2": (r2, lhs_sum,
                         np.broadcast_to((1.0 + t) * np.exp(-t / 16.0) * fnorm, xi1_values.shape)),
                "omg4": (r3, np.abs(res2),
                         decay3 * (xi1_values**2 * np.abs(f[1]) + np.abs(xi1_values) * np.abs(f[3]))),
                "omg3": (r3, np.abs(res4),
                         decay3 * (np.abs(xi1_values) * np.abs(f[1]) + np.abs(f[3]))),
            }
            for name, (mask, lhs, rhs) in data.items():
                ok = mask & (rhs > 0.0)
                if not np.any(ok):
                    continue
                ratio = np.where(ok, lhs / np.where(ok, rhs, 1.0), -np.inf)
                i = int(np.argmax(ratio))
                r = float(ratio[i])
                key = (name, float(t))
                row = AuditRow(name, float(xi1_values[i]), float(t), float(lhs[i]), float(rhs[i]))
                if key not in best or r > best[key].ratio:
                    best[key] = row
                if r > summary[name]["max_ratio"]:
                    summary[name] = {"max_ratio": r, "xi1": row.xi1, "t": row.t,
                                     "lhs": row.lhs, "rhs": row.rhs}
    return summary, [best[k] for k in sorted(best)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_lemma_bounds_matches_sequential_loop(seed):
    got = scan_lemma_bounds(CRITERION8_XI1, CRITERION8_TIMES, n_samples=20, seed=seed)
    want = _sequential_scan(CRITERION8_XI1, CRITERION8_TIMES, 20, seed)
    assert got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_lemma_rows_lie_in_their_strips(seed):
    # at large t every in-strip omg1 ratio underflows to 0 while the
    # right-hand side does not; the reported point must still be in region 1
    _, rows = scan_lemma_bounds(CRITERION8_XI1, CRITERION8_TIMES, n_samples=20, seed=seed)
    strip = {"omg1": 0, "omg2": 1, "omg3": 2, "omg4": 2}
    assert {r.inequality for r in rows} == set(strip)
    for r in rows:
        assert region_masks(r.xi1)[strip[r.inequality]], r


def test_scan_lemma_bounds_splits_phi_once_per_time(monkeypatch):
    calls = []
    original = modes.phi_split

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(modes, "phi_split", counted)
    scan_lemma_bounds(CRITERION8_XI1, CRITERION8_TIMES, n_samples=20, seed=0)
    # one split over a time axis gives every time its own
    assert len(calls) == 1
    assert np.shape(calls[0][2]) == (len(CRITERION8_TIMES), 1)
