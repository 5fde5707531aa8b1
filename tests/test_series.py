import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hankelbound.series import TruncatedSeries, compose, div, elementary

from conftest import deriv, zderiv


def coeffs(s):
    return np.array(s.coeffs)


def assert_series_close(s, expected, atol=1e-14):
    np.testing.assert_allclose(coeffs(s), np.array(expected, dtype=complex), atol=atol)


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
coeff_lists = st.lists(finite, min_size=7, max_size=7)


class TestMul:
    def test_difference_of_squares(self):
        one_plus = TruncatedSeries.from_coeffs([1, 1], 3)
        one_minus = TruncatedSeries.from_coeffs([1, -1], 3)
        assert_series_close(one_plus * one_minus, [1, 0, -1, 0])

    def test_multiplicative_identity(self):
        s = TruncatedSeries.from_coeffs([2, -1, 0.5, 3], 3)
        assert (s * TruncatedSeries.constant(1.0, 3)).coeffs == s.coeffs

    def test_hand_convolution(self):
        a = TruncatedSeries.from_coeffs([1, 2, 3], 2)
        b = TruncatedSeries.from_coeffs([1, 1], 2)
        assert_series_close(a * b, [1, 3, 5])

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order mismatch"):
            TruncatedSeries.constant(1.0, 3) * TruncatedSeries.constant(1.0, 4)

    @given(coeff_lists, coeff_lists)
    def test_commutative(self, a, b):
        sa, sb = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
        np.testing.assert_allclose(coeffs(sa * sb), coeffs(sb * sa), rtol=1e-14, atol=1e-14)

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_associative(self, a, b, c):
        sa, sb, sc = (TruncatedSeries(tuple(v)) for v in (a, b, c))
        lhs = coeffs((sa * sb) * sc)
        rhs = coeffs(sa * (sb * sc))
        scale = max(1.0, np.abs(lhs).max(), np.abs(rhs).max())
        np.testing.assert_allclose(lhs, rhs, atol=1e-14 * scale)


class TestDiv:
    def test_koebe_log_derivative(self):
        # z k'(z) / k(z) for k = z/(1-z)^2 is the half-plane map (1+z)/(1-z);
        # numerator and denominator share a factor z, stripped before dividing
        order = 6
        z = TruncatedSeries.z(order)
        koebe = z / ((1 - z) * (1 - z))
        ratio = div(
            TruncatedSeries(zderiv(koebe).coeffs[1:]), TruncatedSeries(koebe.coeffs[1:])
        )
        assert_series_close(ratio, [1] + [2] * (order - 1), atol=1e-13)

    def test_self_division(self):
        s = TruncatedSeries.from_coeffs([3, 1, -2, 0.25], 3)
        assert_series_close(div(s, s), [1, 0, 0, 0])

    def test_geometric(self):
        z = TruncatedSeries.z(3)
        assert_series_close(div(TruncatedSeries.constant(1.0, 3), 1 - z), [1, 1, 1, 1])

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroDivisionError):
            div(TruncatedSeries.constant(1.0, 3), TruncatedSeries.z(3))

    @given(coeff_lists, coeff_lists)
    def test_mul_roundtrip(self, a, b):
        b = [b[0] + (3.0 if b[0] >= 0 else -3.0)] + b[1:]  # keep b(0) away from 0
        sa, sb = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
        back = div(sa, sb) * sb
        scale = max(1.0, np.abs(coeffs(sa)).max())
        np.testing.assert_allclose(coeffs(back), coeffs(sa), atol=1e-10 * scale)


class TestCompose:
    def test_matches_second_order_expansion(self):
        # phi((p-1)/(p+1)) = 1 + B1 c1/2 z + (B1 (c2 - c1^2/2)/2 + B2 c1^2/4) z^2 + ...
        b1, b2, c1, c2 = 1.7, -0.6, 0.9, 1.3
        outer = TruncatedSeries.from_coeffs([1, b1, b2], 4)
        inner = TruncatedSeries.from_coeffs([0, c1 / 2, c2 / 2 - c1**2 / 4], 4)
        got = compose(outer, inner)
        assert got[0] == pytest.approx(1)
        assert got[1] == pytest.approx(b1 * c1 / 2)
        assert got[2] == pytest.approx(b1 * (c2 - c1**2 / 2) / 2 + b2 * c1**2 / 4)

    def test_zero_inner_gives_constant(self):
        outer = TruncatedSeries.from_coeffs([5, 1, 2, 3], 3)
        assert_series_close(compose(outer, TruncatedSeries.constant(0.0, 3)), [5, 0, 0, 0])

    def test_square_of_z_plus_z2(self):
        outer = TruncatedSeries.from_coeffs([0, 0, 1], 3)
        inner = TruncatedSeries.from_coeffs([0, 1, 1], 3)
        assert_series_close(compose(outer, inner), [0, 0, 1, 2])

    def test_nonzero_inner_constant_rejected(self):
        with pytest.raises(ValueError, match="zero constant term"):
            compose(TruncatedSeries.constant(1.0, 3), TruncatedSeries.constant(1.0, 3))


class TestElementary:
    def test_sqrt1p_against_binomial(self):
        s = elementary("sqrt1p", 6)
        expected, c = [], 1.0
        for k in range(7):
            expected.append(c)
            c *= (0.5 - k) / (k + 1)
        assert_series_close(s, expected)
        assert_series_close(s.truncate(3), [1, 0.5, -0.125, 0.0625])

    def test_log1p(self):
        s = elementary("log1p", 3)
        assert_series_close(s, [0, 1, -0.5, 1 / 3])

    def test_exp_log_roundtrip(self):
        order = 8
        back = compose(elementary("exp", order), elementary("log1p", order))
        assert_series_close(back, [1, 1] + [0] * (order - 1), atol=1e-12)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError, match="unsupported"):
            elementary("tanh", 5)

    def test_order_too_small(self):
        with pytest.raises(ValueError, match="at least 3"):
            elementary("exp", 2)


@given(coeff_lists, coeff_lists)
def test_product_rule(a, b):
    f, g = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
    lhs = coeffs(deriv(f * g))
    rhs = coeffs(deriv(f) * g.truncate(f.order - 1) + f.truncate(f.order - 1) * deriv(g))
    scale = max(1.0, np.abs(lhs).max())
    np.testing.assert_allclose(lhs, rhs, atol=1e-13 * scale)


def test_zderiv_matches_shifted_deriv():
    s = TruncatedSeries.from_coeffs([4, 3, 2, 1], 3)
    assert_series_close(zderiv(s), [0, 3, 4, 3])


def test_truncate_pads_and_cuts():
    s = TruncatedSeries.from_coeffs([1, 2, 3], 2)
    assert s.truncate(4).coeffs == (1, 2, 3, 0, 0)
    assert s.truncate(1).coeffs == (1, 2)


def test_scalar_arithmetic():
    z = TruncatedSeries.z(3)
    assert_series_close(1 + 2 * z, [1, 2, 0, 0])
    assert_series_close((1 - z) / 2, [0.5, -0.5, 0, 0])
    assert_series_close(1 / (1 - z), [1, 1, 1, 1])


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(())


def test_exp_coefficients_are_inverse_factorials():
    s = elementary("exp", 5)
    for k in range(6):
        assert s[k] == pytest.approx(1 / math.factorial(k))
