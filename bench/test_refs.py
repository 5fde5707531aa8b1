"""Tests of the benchmark's independent references (refs.py).

Run from the repository root:  python3 -m pytest -q bench/test_refs.py

The inversion in refs.invert is checked against a forward evaluation of
each class's defining expression L(f), done here with plain truncated
power series, so neither side borrows from hankelbound.
"""

import cmath
import math
import random

import pytest

import refs

N = 4  # coefficients of z^0..z^3


def add(p, q):
    return [x + y for x, y in zip(p, q)]


def scale(p, s):
    return [x * s for x in p]


def mul(p, q):
    return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(N)]


def div(p, q):
    out = []
    for k in range(N):
        out.append((p[k] - sum(out[i] * q[k - i] for i in range(k))) / q[0])
    return out


ONE = [1.0, 0.0, 0.0, 0.0]
Z = [0.0, 1.0, 0.0, 0.0]


def forward(kind, a, gamma=None, tau=None, alpha=None):
    """Series of L(f) for f = z + a2 z^2 + a3 z^3 + a4 z^4."""
    a2, a3, a4 = a
    f_over_z = [1.0, a2, a3, a4]
    fp = [1.0, 2 * a2, 3 * a3, 4 * a4]
    zfpp = [0.0, 2 * a2, 6 * a3, 12 * a4]
    if kind == "starlike":
        return div(fp, f_over_z)
    if kind == "convex":
        return add(ONE, div(zfpp, fp))
    if kind == "rgt":
        return add(ONE, scale(add(add(fp, scale(zfpp, gamma)), scale(ONE, -1.0)), 1.0 / tau))
    if kind == "galpha":
        return add(scale(fp, 1.0 - alpha), scale(add(ONE, div(zfpp, fp)), alpha))
    raise ValueError(kind)


def phi_of_w(phi, w):
    ws = [0.0, *w]
    w2 = mul(ws, ws)
    w3 = mul(w2, ws)
    return add(add(add(ONE, scale(ws, phi[0])), scale(w2, phi[1])), scale(w3, phi[2]))


def series_exp(p):
    """exp of a series with zero constant term."""
    out, term = list(ONE), list(ONE)
    for k in range(1, N):
        term = scale(mul(term, p), 1.0 / k)
        out = add(out, term)
    return out


def series_log1p(p):
    """log(1 + p) of a series with zero constant term."""
    out, power = [0.0] * N, list(ONE)
    for k in range(1, N):
        power = mul(power, p)
        out = add(out, scale(power, (-1.0) ** (k + 1) / k))
    return out


def close_lists(p, q, tol=1e-12):
    return all(abs(x - y) <= tol * max(1.0, abs(x), abs(y)) for x, y in zip(p, q))


CLASSES = [
    ("starlike", {}),
    ("convex", {}),
    ("rgt", {"gamma": 0.3, "tau": 1.5 - 0.7j}),
    ("galpha", {"alpha": 0.6}),
]


def test_starlike_halfplane_identity_member_is_koebe():
    assert refs.invert("starlike", refs.target_terms((2.0, 2.0, 2.0), refs.W_IDENTITY)) == (2.0, 3.0, 4.0)
    assert refs.member_hankel("starlike", (2.0, 2.0, 2.0), refs.W_IDENTITY) == 1.0


def test_convex_halfplane_identity_member_is_z_over_1_minus_z():
    assert refs.invert("convex", refs.target_terms((2.0, 2.0, 2.0), refs.W_IDENTITY)) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("kind,params", CLASSES)
def test_inversion_satisfies_defining_relation(kind, params):
    rng = random.Random(7)
    for _ in range(50):
        phi = (rng.uniform(0.1, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        w = refs.w_blaschke(cmath.rect(rng.uniform(0, 0.99), rng.uniform(0, 2 * math.pi)))
        a = refs.invert(kind, refs.target_terms(phi, w), **params)
        assert close_lists(forward(kind, a, **params), phi_of_w(phi, w))


def test_galpha_ends_are_rgt_and_convex():
    t = refs.target_terms((1.3, -0.4, 0.8), refs.w_blaschke(0.2 + 0.5j))
    assert close_lists(refs.invert("galpha", t, alpha=1.0), refs.invert("convex", t))
    assert close_lists(refs.invert("galpha", t, alpha=0.0), refs.invert("rgt", t, gamma=0.0, tau=1.0))


def test_blaschke_coefficients():
    a = 0.3 - 0.6j
    series = mul(Z, div([-a, 1.0, 0.0, 0.0], [1.0, -a.conjugate(), 0.0, 0.0]))
    assert close_lists(series[1:], list(refs.w_blaschke(a)))


@pytest.mark.parametrize(
    "name,params,series",
    [
        ("halfplane", {}, div(add(ONE, Z), add(ONE, scale(Z, -1.0)))),
        ("order_alpha", {"alpha": 0.3}, div(add(ONE, scale(Z, 0.4)), add(ONE, scale(Z, -1.0)))),
        (
            "strongly_beta",
            {"beta": 0.45},
            series_exp(scale(add(series_log1p(Z), scale(series_log1p(scale(Z, -1.0)), -1.0)), 0.45)),
        ),
        ("lemniscate", {}, [1.0, 0.5, 0.5 * -0.5 / 2, 0.5 * -0.5 * -1.5 / 6]),
        ("janowski", {"a": 0.7, "b": -0.2}, div(add(ONE, scale(Z, 0.7)), add(ONE, scale(Z, -0.2)))),
    ],
)
def test_preset_coefficients(name, params, series):
    assert close_lists(list(refs.preset_phi(name, **params)), series[1:])


def test_parabolic_coefficients():
    # L(u) = log((1+u)/(1-u)) = 2(u + u^3/3 + u^5/5); keep the even powers of L^2.
    odd = {1: 2.0, 3: 2.0 / 3.0, 5: 2.0 / 5.0}
    square = {m: sum(odd[i] * odd[2 * m - i] for i in odd if 2 * m - i in odd) for m in (1, 2, 3)}
    expected = [2.0 / math.pi**2 * square[m] for m in (1, 2, 3)]
    assert close_lists(list(refs.preset_phi("parabolic")), expected)


@pytest.mark.parametrize(
    "preset,params",
    [
        ("halfplane", {}),
        ("lemniscate", {}),
        ("parabolic", {}),
        ("strongly_beta", {"beta": 0.35}),
        ("order_alpha", {"alpha": 0.5}),
        ("order_alpha", {"alpha": 0.9}),
    ],
)
def test_starlike_sharp_values_are_attained_on_the_grid(preset, params):
    value, _ = refs.sharp_value("starlike", preset, params)
    phi = refs.preset_phi(preset, **params)
    assert refs.close(refs.grid_lower_bound("starlike", phi), value)


def test_convex_halfplane_members_stay_below_sharp_value():
    value, exact = refs.sharp_value("convex", "halfplane", {})
    assert exact and refs.grid_lower_bound("convex", refs.preset_phi("halfplane")) <= value


def test_check_bound_flags_a_bound_below_a_member():
    errors = []
    refs.check_bound(errors, "koebe", 0.99, "starlike", (2.0, 2.0, 2.0), 0.5, {})
    assert len(errors) == 1 and "below class member" in errors[0]
    errors = []
    refs.check_bound(errors, "koebe", 1.0, "starlike", (2.0, 2.0, 2.0), 0.5, {}, "halfplane", {})
    assert errors == []
