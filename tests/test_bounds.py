import math
import re

import numpy as np
import pytest

import hankelbound as hb
from hankelbound.bounds import BRANCHES, CASE_ENDPOINT, CASE_R, CASE_VERTEX

from conftest import REGION_OVERFLOW_TARGET, random_phi, random_spec


class TestProfile:
    def test_starlike_halfplane(self):
        prof = hb.profile(hb.starlike(hb.preset("halfplane")))
        assert prof.P == pytest.approx(-15 / 4)
        assert prof.Q == 0
        assert prof.R == pytest.approx(48)
        assert prof.T == pytest.approx(1 / 48)
        assert (prof.d1, prof.d2, prof.d3) == (16, 0, -12)
        assert prof.d4 == pytest.approx(-4)

    def test_convex_halfplane(self):
        prof = hb.profile(hb.convex(hb.preset("halfplane")))
        assert prof.P == pytest.approx(-16 / 3)
        assert prof.Q == pytest.approx(32 / 3)
        assert prof.R == pytest.approx(128 / 3)
        assert prof.T == pytest.approx(1 / 384)

    def test_starlike_q_formula(self, rng):
        for _ in range(20):
            phi = random_phi(rng)
            prof = hb.profile(hb.starlike(phi))
            assert prof.Q == pytest.approx(4 * (abs(phi.b2) - phi.b1), rel=1e-14)

    def test_r_and_t_positive(self, rng):
        for kind in hb.classes.KINDS:
            for _ in range(25):
                prof = hb.profile(random_spec(rng, kind))
                assert prof.R > 0
                assert prof.T > 0

    def test_functional_reduction_identity(self, rng):
        # |a2 a4 - a3^2| = T |d1 c1 c3 + d2 c1^2 c2 + d3 c2^2 + d4 c1^4|
        for kind in hb.classes.KINDS:
            for _ in range(40):
                spec = random_spec(rng, kind)
                prof = hb.profile(spec)
                c1, c2, c3 = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
                t = hb.coefficients_from_c(spec, c1, c2, c3)
                combo = prof.d1 * c1 * c3 + prof.d2 * c1**2 * c2 + prof.d3 * c2**2 + prof.d4 * c1**4
                assert hb.hankel2(t) == pytest.approx(prof.T * abs(combo), rel=1e-11, abs=1e-13)


class TestQuadMax:
    def test_interior_max_at_zero(self):
        assert hb.quad_max(-9 / 4, 0, 48) == (48, CASE_R)

    def test_increasing_endpoint(self):
        assert hb.quad_max(1, 0, 0) == (16, CASE_ENDPOINT)

    def test_vertex(self):
        value, branch = hb.quad_max(-1, 4, 0)
        assert branch == CASE_VERTEX
        assert value == pytest.approx(4)

    def test_tie_break_prefers_first_region(self):
        # boundary Q = 0, P = 0 belongs to both caseR and case16P4QR
        value, branch = hb.quad_max(0, 0, 5)
        assert branch == CASE_R
        assert value == 5

    def test_robust_examples(self):
        assert hb.robust_quad_max(-9 / 4, 0, 48) == 48
        assert hb.robust_quad_max(0, 0, 5) == 5
        assert hb.robust_quad_max(-1, 4, 0) == pytest.approx(4)

    def test_agrees_with_robust_on_box(self):
        rng = np.random.default_rng(20250810)
        p, q, r = (rng.uniform(-50, 50, 100_000) for _ in range(3))
        for pi, qi, ri in zip(p, q, r):
            value, _ = hb.quad_max(pi, qi, ri)
            robust = hb.robust_quad_max(pi, qi, ri)
            assert math.isclose(value, robust, rel_tol=1e-10, abs_tol=1e-10)


def statement_conditions(spec):
    """The per-region hypothesis sets of the closed forms, oriented uniformly:
    q_like has the sign of Q, e1 >= 0 means P <= -Q/4, e2 >= 0 means
    P <= -Q/8."""
    phi = spec.phi
    b1, ab2, ab3 = phi.b1, abs(phi.b2), abs(phi.b3)
    if spec.kind == "starlike":
        q_like = ab2 - b1
        e1 = 4 * b1**4 - 16 * b1 * ab3 + 12 * phi.b2**2 - 6 * b1 * ab2 + 9 * b1**2
        e2 = 4 * b1**4 - 16 * b1 * ab3 + 12 * phi.b2**2 - 2 * b1 * ab2 + 5 * b1**2
    elif spec.kind == "convex":
        q_like = b1**2 + 4 * ab2 - 2 * b1
        e1 = b1**4 - b1**2 * ab2 - 6 * b1 * ab3 + 4 * phi.b2**2 + 4 * b1**2
        e2 = (
            2 * b1**4
            - 2 * b1**2 * ab2
            - 12 * b1 * ab3
            + 8 * phi.b2**2
            + 4 * b1 * ab2
            + b1**3
            + 6 * b1**2
        )
    elif spec.kind == "rgt":
        p = spec.p
        m = abs(b1 * phi.b3 - p * phi.b2**2)
        q_like = 2 * ab2 * (1 - p) + b1 * (1 - 2 * p)
        e1 = p * b1**2 - m
        e2 = b1**2 + 2 * (1 - p) * b1 * ab2 - 2 * m
    else:
        p, a = spec.p, spec.alpha
        q_like = b1**2 * a * (3 - 2 * p) + 2 * ab2 * (1 + a - p) + b1 * (1 + a - 2 * p)
        e1 = -(
            b1**4 * a * (2 * a - 1 - p * a)
            + a * b1**2 * ab2 * (3 - 2 * p)
            + (a + 1) * b1 * ab3
            - p * (b1**2 + phi.b2**2)
        )
        e2 = -(
            2 * b1**4 * a * (2 * a - 1 - p * a)
            + 2 * a * b1**2 * ab2 * (3 - 2 * p)
            - b1**3 * a * (3 - 2 * p)
            + 2 * (a + 1) * b1 * ab3
            - 2 * (1 + a - p) * b1 * ab2
            - (1 + a) * b1**2
            - 2 * p * phi.b2**2
        )
    return q_like, e1, e2


class TestBranchConditionEquivalence:
    """The per-region hypothesis sets match the quadratic's region selection."""

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_equivalence(self, kind):
        rng = np.random.default_rng(42)
        slack = 1e-12
        seen = set()
        for _ in range(10_000):
            spec = random_spec(rng, kind)
            prof = hb.profile(spec)
            _, branch = hb.quad_max(prof.P, prof.Q, prof.R)
            seen.add(branch)
            q_like, e1, e2 = statement_conditions(spec)
            scale = max(1.0, abs(q_like), abs(e1), abs(e2))
            if branch == CASE_R:
                # region: Q <= 0 and P <= -Q/4
                assert q_like <= slack * scale
                assert e1 >= -slack * scale
            elif branch == CASE_ENDPOINT:
                # region: Q >= 0, P >= -Q/8  or  Q <= 0, P >= -Q/4
                ok = (q_like >= -slack * scale and e2 <= slack * scale) or (
                    q_like <= slack * scale and e1 <= slack * scale
                )
                assert ok
            else:
                # region: Q > 0 and P <= -Q/8
                assert q_like > -slack * scale
                assert e2 >= -slack * scale
        assert seen == set(BRANCHES)


class TestSecondHankelBound:
    def test_lemniscate(self):
        r = hb.second_hankel_bound(hb.starlike(hb.preset("lemniscate")))
        assert r.bound == pytest.approx(0.0625, abs=1e-12)
        assert r.branch == CASE_R

    def test_parabolic(self):
        r = hb.second_hankel_bound(hb.starlike(hb.preset("parabolic")))
        assert r.bound == pytest.approx(16 / math.pi**4, abs=1e-9)
        assert r.branch == CASE_R

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.75, 1.0])
    def test_strongly_starlike(self, beta):
        r = hb.second_hankel_bound(hb.starlike(hb.preset("strongly_beta", beta=beta)))
        assert r.bound == pytest.approx(beta**2, abs=1e-12)
        assert r.branch == CASE_R

    def test_order_seven_eighths(self):
        r = hb.second_hankel_bound(hb.starlike(hb.preset("order_alpha", alpha=7 / 8)))
        assert r.bound == pytest.approx(0.0166015625, abs=1e-12)
        assert r.branch == CASE_ENDPOINT

    def test_halfplane_values(self):
        assert hb.second_hankel_bound(hb.starlike(hb.preset("halfplane"))).bound == pytest.approx(
            1.0, abs=1e-12
        )
        assert hb.second_hankel_bound(hb.convex(hb.preset("halfplane"))).bound == pytest.approx(
            0.125, abs=1e-12
        )

    @pytest.mark.parametrize(
        "phi, value, branch",
        [
            # B1^2/36 with B1 = 1/2
            (hb.preset("lemniscate"), 1 / 144, CASE_R),
            # (-B1^4 + B1^2 |B2| + 6 B1 |B3| - 4 B2^2)/144
            (hb.custom(1, 0, 1), 5 / 144, CASE_ENDPOINT),
            (hb.preset("halfplane"), 1 / 8, CASE_VERTEX),
        ],
        ids=["lemniscate", "custom_1_0_1", "halfplane"],
    )
    def test_convex_theorem_per_branch(self, phi, value, branch):
        r = hb.second_hankel_bound(hb.convex(phi))
        assert r.branch == branch
        assert r.closed_form_value == pytest.approx(value, rel=1e-12)
        assert r.bound == pytest.approx(value, rel=1e-12)

    def test_tau_modulus_scaling(self):
        phi = hb.preset("halfplane")
        base = hb.second_hankel_bound(hb.r_gamma_tau(phi, 0.5, 1 + 0j)).bound
        scaled = hb.second_hankel_bound(hb.r_gamma_tau(phi, 0.5, 2 + 0j)).bound
        assert scaled == pytest.approx(4 * base, rel=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_tau_scale_law_holds_or_underflows(self, gamma):
        # the bound is |tau|^2 times its tau = 1 value; a T below the normal
        # float range has lost digits, so it is refused rather than let through
        phi = hb.custom(1, 1, 1)
        base = hb.second_hankel_bound(hb.r_gamma_tau(phi, gamma, 1 + 0j)).bound
        for tau in np.logspace(-161.6, -150, 400):
            try:
                bound = hb.second_hankel_bound(hb.r_gamma_tau(phi, gamma, complex(tau))).bound
            except ValueError as exc:
                assert "underflows at this target's magnitude" in str(exc)
                continue
            # divided out, as |tau|^2 itself would round in the subnormal range
            assert bound / tau / tau >= base * (1 - 1e-12)

    def test_first_derivative_consistency_on_halfplane(self):
        phi = hb.preset("halfplane")
        a = hb.second_hankel_bound(hb.r_gamma_tau(phi, 0.0, 1 + 0j)).bound
        b = hb.second_hankel_bound(hb.g_alpha(phi, 0.0)).bound
        assert a == pytest.approx(b, rel=1e-12)

    def test_closed_form_tracks_quadratic(self, rng):
        for kind in hb.classes.KINDS:
            for _ in range(500):
                spec = random_spec(rng, kind)
                r = hb.second_hankel_bound(spec)
                value, _ = hb.quad_max(r.profile.P, r.profile.Q, r.profile.R)
                assert r.closed_form_value == pytest.approx(r.profile.T * value, rel=1e-10)

    def test_monotone_in_b3_for_starlike(self):
        # from r on the quartic coefficient K4 = 2 B3 - B1^3/2 - 3 B2^2/(2 B1)
        # is non-negative; below r the true supremum dips where K4 changes sign
        for b1, b2 in [(2.0, 2.0), (1.0, -0.5), (0.5, 1.5), (2.5, 0.0)]:
            r = (b1**3 + 3 * b2**2 / b1) / 4
            bounds_seq = [
                hb.second_hankel_bound(hb.starlike(hb.custom(b1, b2, b3))).bound
                for b3 in np.linspace(r, r + 3, 25)
            ]
            assert all(b - a >= -1e-12 for a, b in zip(bounds_seq, bounds_seq[1:]))

    def test_bound_is_larger_of_closed_form_and_certified(self, rng):
        for kind in hb.classes.KINDS:
            for _ in range(200):
                r = hb.second_hankel_bound(random_spec(rng, kind))
                paper = r.profile.T * hb.robust_quad_max(r.profile.P, r.profile.Q, r.profile.R)
                assert r.bound == max(paper, r.closed_form_value, r.certified_value)
                assert r.bound >= r.closed_form_value

    def test_certified_covers_unsound_closed_form(self):
        # c1 = 2 gives |a2 a4 - a3^2| = 16/3 for this target
        r = hb.second_hankel_bound(hb.starlike(hb.custom(1, -5, 3)))
        assert r.closed_form_value < 0.3
        assert r.bound >= 16 / 3 - 1e-9

    def test_rejects_tiny_b1(self):
        with pytest.raises(ValueError):
            hb.starlike(hb.custom(1e-14, 0, 0))

    @pytest.mark.parametrize(
        "spec",
        [
            hb.starlike(hb.custom(1e120, 1, 1)),  # b1**3 in profile
            hb.starlike(hb.custom(1, 1e200, 1)),  # b2**2 in _closed_form
            hb.r_gamma_tau(hb.custom(1, 1, 1), 0.5, 1e200 + 0j),  # abs(tau)**2 in profile
        ],
        ids=["b1_cubed", "b2_squared", "tau_squared"],
    )
    def test_overflow_is_a_value_error(self, spec):
        with pytest.raises(ValueError, match="overflows") as info:
            hb.second_hankel_bound(spec)
        assert isinstance(info.value.__cause__, OverflowError)

    def test_tau_underflow_is_named(self):
        # |tau|^2 B1^2 underflows to 0; the class and the cause are named, not "T must be positive"
        spec = hb.r_gamma_tau(hb.custom(1, 1, 1), 0.0, 1e-170)
        with pytest.raises(ValueError, match=re.escape("bound of rgt(gamma=0, tau=1e-170+0j) underflows")):
            hb.second_hankel_bound(spec)
        with pytest.raises(ValueError, match="T must be positive"):
            hb.QuadraticProfile(P=0.0, Q=0.0, R=1.0, T=0.0, d1=4.0, d2=0.0, d3=-4.0, d4=0.0)

    def test_region_overflow_is_not_finite(self):
        # at this magnitude the region value overflows while the other two stay finite
        spec = hb.convex(hb.custom(*REGION_OVERFLOW_TARGET))
        with pytest.raises(ValueError, match=re.escape("bound of convex is not finite at this target's magnitude")):
            hb.second_hankel_bound(spec)

    def test_disagreeing_paper_forms_are_a_value_error(self, monkeypatch):
        # the closed form off by 1e-6 relative, past the 1e-9 agreement tolerance
        closed_form = hb.bounds._closed_form
        monkeypatch.setattr("hankelbound.bounds._closed_form", lambda *args: closed_form(*args) * (1 + 1e-6))
        with pytest.raises(ValueError, match="paper-form values of convex disagree"):
            hb.second_hankel_bound(hb.convex(hb.preset("lemniscate")))


class TestMajorantConsistency:
    """The mu = 1 section of the maximisation surface is the certified
    quadratic T (P' t^2 + Q' t + R') in t = c^2, for every class."""

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_surface_matches_profile(self, kind, rng):
        c = np.linspace(0, 2, 41)
        t = c**2
        for _ in range(40):
            spec = random_spec(rng, kind)
            prof = hb.profile(spec)
            p, q, r = hb.certified_quadratic(prof.d1, prof.d2, prof.d3, prof.d4)
            quad = prof.T * (p * t**2 + q * t + r)
            np.testing.assert_allclose(hb.majorant_surface(spec, c, 1.0), quad, rtol=1e-12)


class TestCertifiedQuadratic:
    def test_first_derivative_class_is_its_paper_form(self, rng):
        # rgt already majorises every term by its modulus, so the certified
        # quadratic is the paper's P, Q, R as printed
        for _ in range(200):
            spec = random_spec(rng, "rgt")
            prof = hb.profile(spec)
            p, r = spec.p, spec.phi.b2 / spec.phi.b1
            paper = (
                abs(spec.phi.b3 / spec.phi.b1 - p * r * r) - (1.0 - p) * (2.0 * abs(r) + 1.0),
                4.0 * (2.0 * abs(r) * (1.0 - p) + 1.0 - 2.0 * p),
                16.0 * p,
            )
            np.testing.assert_allclose(
                hb.certified_quadratic(prof.d1, prof.d2, prof.d3, prof.d4), paper, rtol=1e-12, atol=1e-12
            )

    def test_mu_one_section_of_triangle_majorant(self, rng):
        # the term-by-term majorant peaks at mu = |x| = 1, where it equals
        # P' t^2 + Q' t + R' in t = c^2
        c = np.linspace(0, 2, 21)[:, None]
        mu = np.linspace(0, 1, 11)[None, :]
        s = 4 - c**2
        for kind in hb.classes.KINDS:
            for _ in range(20):
                spec = random_spec(rng, kind)
                prof = hb.profile(spec)
                d1, d2, d3, d4 = prof.d1, prof.d2, prof.d3, prof.d4
                k4 = d1 / 4 + d2 / 2 + d3 / 4 + d4
                majorant = (
                    abs(k4) * c**4
                    + abs(d1 + d2 + d3) / 2 * c**2 * s * mu
                    + s * mu**2 * np.abs(d3 * s - d1 * c**2) / 4
                    + abs(d1) / 2 * c * s * (1 - mu**2)
                )
                surface = hb.majorant_surface(spec, c, mu)
                np.testing.assert_allclose(surface, prof.T * majorant, rtol=1e-12, atol=1e-15)
                p, q, r = hb.certified_quadratic(d1, d2, d3, d4)
                t = c[:, 0] ** 2
                np.testing.assert_allclose(majorant.max(axis=1), majorant[:, -1], rtol=1e-12)
                np.testing.assert_allclose(p * t**2 + q * t + r, majorant[:, -1], rtol=1e-10, atol=1e-10)

    def test_premise_is_enforced(self):
        prof = hb.profile(hb.starlike(hb.preset("halfplane")))
        weights = {"d1": prof.d1, "d2": prof.d2, "d3": prof.d3, "d4": prof.d4}
        for bad in ({"d3": 1.0}, {"d1": 0.0}, {"d3": -1.0}):
            with pytest.raises(ValueError, match="2\\|d3\\| >= d1"):
                hb.certified_quadratic(**{**weights, **bad})
