import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankelbound as hb
from hankelbound.classes import coefficient_arrays
from hankelbound.series import TruncatedSeries, compose, div
from hankelbound.targets import phi_to_series
from hankelbound.verify import expand_arrays

from conftest import deriv, random_phi, random_spec, zderiv

ORDER = 8


def series_from_triple(t):
    """f(z) = z + a2 z^2 + a3 z^3 + a4 z^4 as a working series."""
    return TruncatedSeries.from_coeffs([0, 1, t.a2, t.a3, t.a4], ORDER)


def lhs_series(spec, f):
    """The class-defining expression of f, expanded through series arithmetic."""
    fp = TruncatedSeries.from_coeffs(deriv(f).coeffs, ORDER)
    zfpp = zderiv(fp)
    if spec.kind == "starlike":
        return div(TruncatedSeries(zderiv(f).coeffs[1:]), TruncatedSeries(f.coeffs[1:])).truncate(ORDER - 1)
    if spec.kind == "convex":
        return (1 + div(zfpp, fp)).truncate(ORDER - 1)
    if spec.kind == "rgt":
        return ((fp + spec.gamma * zfpp - 1) / spec.tau + 1).truncate(ORDER - 1)
    return ((1 - spec.alpha) * fp + spec.alpha * (1 + div(zfpp, fp))).truncate(ORDER - 1)


def schwarz_from_c(c1, c2, c3):
    p1 = TruncatedSeries.from_coeffs([1, c1, c2, c3], ORDER)
    return div(p1 - 1, p1 + 1)


disk_point = st.tuples(
    st.floats(min_value=0, max_value=2, allow_nan=False),
    st.complex_numbers(max_magnitude=0.999, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.999, allow_nan=False, allow_infinity=False),
)


# each class with valid values of its own parameters
OWN_PARAMS = {"starlike": {}, "convex": {}, "rgt": {"gamma": 0.5, "tau": 2}, "galpha": {"alpha": 0.5}}


class TestClassSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown class kind"):
            hb.ClassSpec("spiral", hb.preset("halfplane"))

    def test_rgt_requires_nonzero_tau(self):
        for tau in (0, complex("nan"), float("inf"), complex(1, float("inf"))):
            with pytest.raises(ValueError, match="tau"):
                hb.r_gamma_tau(hb.preset("halfplane"), 0.5, tau)

    def test_rgt_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            hb.r_gamma_tau(hb.preset("halfplane"), 1.5, 1)

    def test_galpha_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            hb.g_alpha(hb.preset("halfplane"), -0.25)

    def test_plain_kinds_take_no_parameters(self):
        with pytest.raises(ValueError):
            hb.ClassSpec("starlike", hb.preset("halfplane"), alpha=0.5)

    @pytest.mark.parametrize(
        "kind, name",
        [(kind, name) for kind, own in OWN_PARAMS.items() for name in ("alpha", "gamma", "tau") if name not in own],
    )
    def test_stray_parameter_is_named(self, kind, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            hb.ClassSpec(kind, hb.preset("halfplane"), **OWN_PARAMS[kind], **{name: 0.5})

    def test_p_ranges(self):
        for g in np.linspace(0, 1, 11):
            p = hb.r_gamma_tau(hb.preset("halfplane"), g, 1).p
            assert 64 / 81 - 1e-12 <= p <= 8 / 9 + 1e-12
        for a in np.linspace(0, 1, 11):
            p = hb.g_alpha(hb.preset("halfplane"), a).p
            assert 8 / 9 - 1e-12 <= p <= 4 / 3 + 1e-12
        assert hb.starlike(hb.preset("halfplane")).p is None
        assert hb.convex(hb.preset("halfplane")).p == hb.g_alpha(hb.preset("halfplane"), 1.0).p

    def test_convex_surface_unchanged(self):
        # convex is computed as galpha at alpha = 1 but stores no alpha
        spec = hb.convex(hb.preset("halfplane"))
        assert spec.alpha is None
        assert spec.blend == 1.0
        assert spec.describe() == "convex"
        moved = dataclasses.replace(spec, phi=hb.preset("lemniscate"))
        assert (moved.kind, moved.alpha, moved.phi) == ("convex", None, hb.preset("lemniscate"))


class TestCoefficientsFromC:
    def test_koebe(self):
        spec = hb.starlike(hb.preset("halfplane"))
        t = hb.coefficients_from_c(spec, 2, 2, 2)
        assert t.a2 == pytest.approx(2)
        assert t.a3 == pytest.approx(3)
        assert t.a4 == pytest.approx(4)

    def test_zero_input_gives_identity_function(self):
        for kind in hb.classes.KINDS:
            spec = random_spec(np.random.default_rng(3), kind, hb.preset("halfplane"))
            t = hb.coefficients_from_c(spec, 0, 0, 0)
            assert t.a2 == t.a3 == t.a4 == 0

    def test_convex_halfplane_extremal(self):
        spec = hb.convex(hb.preset("halfplane"))
        t = hb.coefficients_from_c(spec, 2, 2, 2)
        assert t.a2 == pytest.approx(1)
        assert t.a3 == pytest.approx(1)
        assert t.a4 == pytest.approx(1)

    def test_rejects_non_finite(self):
        spec = hb.starlike(hb.preset("halfplane"))
        with pytest.raises(ValueError):
            hb.coefficients_from_c(spec, math.nan, 0, 0)

    def test_matches_expanded_closed_forms(self, rng):
        # spot closed forms for the starlike, convex and rgt kinds
        for _ in range(50):
            phi = random_phi(rng)
            b1, b2, b3 = phi.b1, phi.b2, phi.b3
            c1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c3 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

            t = hb.coefficients_from_c(hb.starlike(phi), c1, c2, c3)
            assert t.a2 == pytest.approx(b1 * c1 / 2, abs=1e-12)
            assert t.a3 == pytest.approx(((b1**2 - b1 + b2) * c1**2 + 2 * b1 * c2) / 8, abs=1e-12)
            assert t.a4 == pytest.approx(
                (
                    (-4 * b2 + 2 * b1 + b1**3 - 3 * b1**2 + 3 * b1 * b2 + 2 * b3) * c1**3
                    + 2 * (3 * b1**2 - 4 * b1 + 4 * b2) * c1 * c2
                    + 8 * b1 * c3
                )
                / 48,
                abs=1e-11,
            )

            t = hb.coefficients_from_c(hb.convex(phi), c1, c2, c3)
            assert t.a2 == pytest.approx(b1 * c1 / 4, abs=1e-12)
            assert t.a3 == pytest.approx(((b1**2 - b1 + b2) * c1**2 + 2 * b1 * c2) / 24, abs=1e-12)
            assert t.a4 == pytest.approx(
                (
                    (-4 * b2 + 2 * b1 + b1**3 - 3 * b1**2 + 3 * b1 * b2 + 2 * b3) * c1**3
                    + 2 * (3 * b1**2 - 4 * b1 + 4 * b2) * c1 * c2
                    + 8 * b1 * c3
                )
                / 192,
                abs=1e-11,
            )

            gamma, tau = rng.uniform(0, 1), complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) + 0.3
            t = hb.coefficients_from_c(hb.r_gamma_tau(phi, gamma, tau), c1, c2, c3)
            assert t.a2 == pytest.approx(tau * b1 * c1 / (4 * (1 + gamma)), abs=1e-12)
            assert t.a3 == pytest.approx(
                tau * b1 / (12 * (1 + 2 * gamma)) * (2 * c2 + c1**2 * (b2 / b1 - 1)), abs=1e-12
            )
            assert t.a4 == pytest.approx(
                tau
                / (32 * (1 + 3 * gamma))
                * (b1 * (4 * c3 - 4 * c1 * c2 + c1**3) + 2 * b2 * c1 * (2 * c2 - c1**2) + b3 * c1**3),
                abs=1e-11,
            )

    def test_galpha_matching_relations(self, rng):
        # psi1 = 2 a2, psi2 = 3(1+a) a3 - 4 a a2^2, psi3 = 4(1+2a) a4 - 18 a a2 a3 + 8 a a2^3
        for _ in range(50):
            phi = random_phi(rng)
            alpha = rng.uniform(0, 1)
            spec = hb.g_alpha(phi, alpha)
            c1, c2, c3 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            t = hb.coefficients_from_c(spec, c1, c2, c3)
            f = series_from_triple(t)
            lhs = lhs_series(spec, f)
            psi1 = 2 * t.a2
            psi2 = 3 * (1 + alpha) * t.a3 - 4 * alpha * t.a2**2
            psi3 = 4 * (1 + 2 * alpha) * t.a4 - 18 * alpha * t.a2 * t.a3 + 8 * alpha * t.a2**3
            assert lhs[1] == pytest.approx(psi1, abs=1e-10)
            assert lhs[2] == pytest.approx(psi2, abs=1e-10)
            assert lhs[3] == pytest.approx(psi3, abs=1e-10)


class TestSubordinationRoundTrip:
    """The defining identity closes: expanding the class expression of the
    extracted f reproduces the composed target, for every kind."""

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_roundtrip(self, kind, rng):
        for _ in range(40):
            spec = random_spec(rng, kind)
            c = rng.uniform(0, 2)
            x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.7
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.7
            c1, c2, c3 = expand_arrays(c, x, z)
            w = schwarz_from_c(c1, c2, c3)
            t = hb.coefficients_from_c(spec, c1, c2, c3)
            lhs = lhs_series(spec, series_from_triple(t))
            rhs = compose(phi_to_series(spec.phi, ORDER), w).truncate(ORDER - 1)
            for k in range(4):
                assert lhs[k] == pytest.approx(rhs[k], abs=1e-10)


class TestCoefficientsFromSchwarz:
    def test_identity_schwarz_is_koebe(self):
        spec = hb.starlike(hb.preset("halfplane"))
        t = hb.coefficients_from_schwarz(spec, TruncatedSeries.z(ORDER))
        assert t.a2 == pytest.approx(2)
        assert t.a3 == pytest.approx(3)
        assert t.a4 == pytest.approx(4)

    def test_zero_schwarz(self):
        spec = hb.convex(hb.preset("lemniscate"))
        t = hb.coefficients_from_schwarz(spec, TruncatedSeries.constant(0.0, ORDER))
        assert t.a2 == t.a3 == t.a4 == 0

    def test_z_squared_lemniscate(self):
        # z f'/f = sqrt(1 + z^2) = 1 + z^2/2 - ..., so a3 = 1/4 and a2 = a4 = 0
        spec = hb.starlike(hb.preset("lemniscate"))
        w = TruncatedSeries.from_coeffs([0, 0, 1], ORDER)
        t = hb.coefficients_from_schwarz(spec, w)
        assert t.a2 == pytest.approx(0)
        assert t.a3 == pytest.approx(0.25)
        assert t.a4 == pytest.approx(0)

    def test_rejects_nonzero_constant(self):
        spec = hb.starlike(hb.preset("halfplane"))
        with pytest.raises(ValueError, match="vanish"):
            hb.coefficients_from_schwarz(spec, TruncatedSeries.constant(1.0, ORDER))

    @settings(max_examples=60, deadline=None)
    @given(disk_point, st.sampled_from(hb.classes.KINDS))
    def test_agrees_with_closed_forms(self, point, kind):
        c, x, z = point
        spec = random_spec(np.random.default_rng(99), kind, hb.preset("halfplane"))
        c1, c2, c3 = expand_arrays(c, x, z)
        ta = hb.coefficients_from_schwarz(spec, schwarz_from_c(c1, c2, c3))
        tb = hb.coefficients_from_c(spec, c1, c2, c3)
        assert ta.a2 == pytest.approx(tb.a2, abs=1e-10)
        assert ta.a3 == pytest.approx(tb.a3, abs=1e-10)
        assert ta.a4 == pytest.approx(tb.a4, abs=1e-10)


class TestClassIdentities:
    def test_galpha_one_matches_convex(self, rng):
        for _ in range(60):
            phi = random_phi(rng)
            c1, c2, c3 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            ta = hb.coefficients_from_c(hb.g_alpha(phi, 1.0), c1, c2, c3)
            tb = hb.coefficients_from_c(hb.convex(phi), c1, c2, c3)
            assert abs(ta.a2 - tb.a2) < 1e-12
            assert abs(ta.a3 - tb.a3) < 1e-12
            assert abs(ta.a4 - tb.a4) < 1e-12

    def test_galpha_zero_matches_first_derivative_class(self, rng):
        for _ in range(60):
            phi = random_phi(rng)
            c1, c2, c3 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            ta = hb.coefficients_from_c(hb.g_alpha(phi, 0.0), c1, c2, c3)
            tb = hb.coefficients_from_c(hb.r_gamma_tau(phi, 0.0, 1 + 0j), c1, c2, c3)
            assert abs(ta.a2 - tb.a2) < 1e-12
            assert abs(ta.a3 - tb.a3) < 1e-12
            assert abs(ta.a4 - tb.a4) < 1e-12

    def test_tau_scaling_is_linear(self, rng):
        for lam in (2, 1j, 1 + 1j):
            phi = random_phi(rng)
            tau = 0.7 - 0.2j
            c1, c2, c3 = 1.1, 0.4 + 0.2j, -0.3j
            ta = hb.coefficients_from_c(hb.r_gamma_tau(phi, 0.3, tau), c1, c2, c3)
            tb = hb.coefficients_from_c(hb.r_gamma_tau(phi, 0.3, lam * tau), c1, c2, c3)
            assert tb.a2 == pytest.approx(lam * ta.a2, rel=1e-12)
            assert tb.a3 == pytest.approx(lam * ta.a3, rel=1e-12)
            assert tb.a4 == pytest.approx(lam * ta.a4, rel=1e-12)
            assert hb.hankel2(tb) == pytest.approx(abs(lam) ** 2 * hb.hankel2(ta), rel=1e-12)


class TestHankel:
    def test_koebe_value(self):
        assert hb.hankel2(hb.CoefficientTriple(2, 3, 4)) == pytest.approx(1)

    def test_lemniscate_extremal_candidate(self):
        assert hb.hankel2(hb.CoefficientTriple(0, 0.25, 0)) == pytest.approx(1 / 16)

    def test_zero(self):
        assert hb.hankel2(hb.CoefficientTriple(0, 0, 0)) == 0

    def test_rotation_invariance(self, rng):
        for _ in range(30):
            t = hb.CoefficientTriple(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            base = hb.hankel2(t)
            for k in range(16):
                # e^{-i theta} f(e^{i theta} z) has a_n -> e^{i(n-1) theta} a_n
                w = cmath.exp(2j * math.pi * k / 16)
                rotated = hb.CoefficientTriple(t.a2 * w, t.a3 * w * w, t.a4 * w * w * w)
                assert hb.hankel2(rotated) == pytest.approx(base, abs=1e-12)


def test_coefficient_arrays_vectorises(rng):
    spec = hb.starlike(hb.preset("halfplane"))
    c1 = rng.uniform(0, 2, 10) + 0j
    c2 = rng.uniform(-2, 2, 10) + 0j
    c3 = rng.uniform(-2, 2, 10) + 0j
    a2, a3, a4 = coefficient_arrays(spec, c1, c2, c3)
    for i in range(10):
        t = hb.coefficients_from_c(spec, c1[i], c2[i], c3[i])
        assert a2[i] == pytest.approx(t.a2)
        assert a3[i] == pytest.approx(t.a3)
        assert a4[i] == pytest.approx(t.a4)


def test_describe_labels():
    assert hb.starlike(hb.preset("halfplane")).describe() == "starlike"
    assert "gamma=0.5" in hb.r_gamma_tau(hb.preset("halfplane"), 0.5, 2).describe()
    assert hb.r_gamma_tau(hb.preset("halfplane"), 0.5, 2).describe() == "rgt(gamma=0.5, tau=2+0j)"
    assert "alpha=0.25" in hb.g_alpha(hb.preset("halfplane"), 0.25).describe()
