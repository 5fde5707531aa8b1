import dataclasses

import numpy as np
import pytest

import hankelbound as hb

# Box for randomly drawn target triples; wide enough to hit every branch of
# every bound pipeline (asserted in test_bounds).
B1_RANGE = (0.05, 3.0)
B23_RANGE = (-3.0, 3.0)
# A convex target whose region value T * max(P t^2 + Q t + R) overflows while
# the other paper-form values stay finite (found by fuzzing extreme custom triples).
REGION_OVERFLOW_TARGET = (7.024420704439291e76, 9.291075771377085e146, 3.2788518613428783e181)


def random_phi(rng: np.random.Generator) -> hb.PhiCoefficients:
    return hb.custom(
        rng.uniform(*B1_RANGE), rng.uniform(*B23_RANGE), rng.uniform(*B23_RANGE), "random"
    )


def random_tau(rng: np.random.Generator) -> complex:
    tau = 0j
    while abs(tau) < 0.25:
        tau = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return tau


def random_spec(rng: np.random.Generator, kind: str, phi=None) -> hb.ClassSpec:
    phi = random_phi(rng) if phi is None else phi
    if kind == "rgt":
        return hb.r_gamma_tau(phi, rng.uniform(0, 1), random_tau(rng))
    if kind == "galpha":
        return hb.g_alpha(phi, rng.uniform(0, 1))
    return hb.ClassSpec(kind, phi)


def deriv(s: hb.TruncatedSeries) -> hb.TruncatedSeries:
    """f' of a series f of order at least 1; the order drops by one."""
    return hb.TruncatedSeries(tuple((k + 1) * c for k, c in enumerate(s.coeffs[1:])))


def zderiv(s: hb.TruncatedSeries) -> hb.TruncatedSeries:
    """z f'(z), at the order of f."""
    return hb.TruncatedSeries(tuple(k * c for k, c in enumerate(s.coeffs)))


@pytest.fixture
def rng():
    return np.random.default_rng(1729)


def preset_catalogue():
    """Representative instance of every preset target."""
    return [
        hb.preset("halfplane"),
        hb.preset("order_alpha", alpha=0.25),
        hb.preset("strongly_beta", beta=0.5),
        hb.preset("lemniscate"),
        hb.preset("parabolic"),
        hb.preset("janowski", a=0.5, b=-0.5),
    ]


def class_catalogue(phi):
    """One spec per class kind for a given target, mid-range parameters."""
    return [
        hb.starlike(phi),
        hb.convex(phi),
        hb.r_gamma_tau(phi, 0.5, 1 + 0j),
        hb.g_alpha(phi, 0.5),
    ]


def verify_against_closed_form(monkeypatch):
    """Make the verifier hold its grid supremum against the paper-form
    ``closed_form_value`` alone, leaving out the certified value, so that a
    target whose closed form is exceeded yields a negative margin."""

    def closed_form_only(spec):
        result = hb.second_hankel_bound(spec)
        return dataclasses.replace(result, bound=result.closed_form_value)

    monkeypatch.setattr("hankelbound.verify.second_hankel_bound", closed_form_only)
