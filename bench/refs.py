"""Independent reference values for checking hankelbound's outputs.

Nothing here imports hankelbound.  Preset targets are the literature's
closed-form Maclaurin coefficients.  A class member is built from a Schwarz
function w and a target (B1, B2, B3) by inverting the class's defining
relation L(f) = phi(w(z)) for a2, a3, a4; ``test_refs.py`` checks that
inversion against a forward series evaluation of L(f).  Since every such
member lies in the class, |a2 a4 - a3^2| of a member is a lower bound for
any true upper bound of the class.
"""

from __future__ import annotations

import math

# Relative slack for comparing two floating-point routes to the same number.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def preset_phi(name: str, **params: float) -> tuple[float, float, float]:
    """(B1, B2, B3) of a named target, from its closed-form expansion."""
    if name == "halfplane":  # (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
        return (2.0, 2.0, 2.0)
    if name == "order_alpha":  # (1+(1-2a)z)/(1-z) = 1 + 2(1-a)(z + z^2 + ...)
        b = 2.0 * (1.0 - params["alpha"])
        return (b, b, b)
    if name == "strongly_beta":  # exp(beta * 2(z + z^3/3 + ...))
        beta = params["beta"]
        return (2.0 * beta, 2.0 * beta * beta, (2.0 * beta + 4.0 * beta**3) / 3.0)
    if name == "lemniscate":  # sqrt(1+z)
        return (0.5, -0.125, 0.0625)
    if name == "parabolic":  # 1 + (2/pi^2) L(sqrt z)^2, L(u)^2 = 4u^2 + 8u^4/3 + 92u^6/45 + ...
        pi2 = math.pi**2
        return (8.0 / pi2, 16.0 / (3.0 * pi2), 184.0 / (45.0 * pi2))
    if name == "janowski":  # (1+Az)/(1+Bz)
        a, b = params["a"], params["b"]
        d = a - b
        return (d, -b * d, b * b * d)
    raise ValueError(f"no reference for preset {name!r}")


# Schwarz functions by their first three coefficients (w1, w2, w3).
W_IDENTITY = (1.0, 0.0, 0.0)  # w = z
W_SQUARE = (0.0, 1.0, 0.0)  # w = z^2


def w_blaschke(a: complex) -> tuple[complex, complex, complex]:
    """w = z (z - a) / (1 - conj(a) z), |a| < 1."""
    s = 1.0 - abs(a) ** 2
    return (-a, s, a.conjugate() * s)


def target_terms(phi, w):
    """z^1..z^3 coefficients of phi(w(z)) = 1 + B1 w + B2 w^2 + B3 w^3 + ..."""
    b1, b2, b3 = phi
    w1, w2, w3 = w
    return (
        b1 * w1,
        b1 * w2 + b2 * w1 * w1,
        b1 * w3 + 2.0 * b2 * w1 * w2 + b3 * w1**3,
    )


def invert(kind: str, t, gamma=None, tau=None, alpha=None):
    """a2, a3, a4 with L(f) = 1 + t1 z + t2 z^2 + t3 z^3 + ... for the class.

    starlike  z f'/f               = 1 + a2 z + (2a3 - a2^2) z^2 + (3a4 - 3a2a3 + a2^3) z^3
    convex    1 + z f''/f'         = 1 + 2a2 z + (6a3 - 4a2^2) z^2 + (12a4 - 18a2a3 + 8a2^3) z^3
    rgt       1 + (f' + g z f'' - 1)/tau, whose z^k coefficient is (k+1)(1 + k g) a_{k+1} / tau
    galpha    (1-a) f' + a (1 + z f''/f')
              = 1 + 2a2 z + (3(1+a)a3 - 4a a2^2) z^2 + (4(1+2a)a4 - 18a a2a3 + 8a a2^3) z^3
    """
    t1, t2, t3 = t
    if kind == "starlike":
        a2 = t1
        a3 = (t2 + a2 * a2) / 2.0
        a4 = (t3 + 3.0 * a2 * a3 - a2**3) / 3.0
    elif kind == "convex":
        a2 = t1 / 2.0
        a3 = (t2 + 4.0 * a2 * a2) / 6.0
        a4 = (t3 + 18.0 * a2 * a3 - 8.0 * a2**3) / 12.0
    elif kind == "rgt":
        a2 = tau * t1 / (2.0 * (1.0 + gamma))
        a3 = tau * t2 / (3.0 * (1.0 + 2.0 * gamma))
        a4 = tau * t3 / (4.0 * (1.0 + 3.0 * gamma))
    elif kind == "galpha":
        a2 = t1 / 2.0
        a3 = (t2 + 4.0 * alpha * a2 * a2) / (3.0 * (1.0 + alpha))
        a4 = (t3 + 18.0 * alpha * a2 * a3 - 8.0 * alpha * a2**3) / (4.0 * (1.0 + 2.0 * alpha))
    else:
        raise ValueError(f"unknown class {kind!r}")
    return a2, a3, a4


def member_hankel(kind: str, phi, w, **class_params) -> float:
    """|a2 a4 - a3^2| of the class member with L(f) = phi(w(z))."""
    a2, a3, a4 = invert(kind, target_terms(phi, w), **class_params)
    return abs(a2 * a4 - a3 * a3)


def members_lower_bound(kind: str, phi, a: complex, **class_params) -> float:
    """Largest |a2 a4 - a3^2| over the w = z, w = z^2 and Blaschke(a) members."""
    return max(
        member_hankel(kind, phi, w, **class_params) for w in (W_IDENTITY, W_SQUARE, w_blaschke(a))
    )


def grid_lower_bound(kind: str, phi, **class_params) -> float:
    """Largest |a2 a4 - a3^2| of the w = z and w = z^2 members.

    Both lie on every verification grid: w = z has c1 = 2 (c = 2) and w = z^2
    has c1 = 0, c2 = 2, c3 = 0 (c = 0, x = 1).
    """
    return max(member_hankel(kind, phi, w, **class_params) for w in (W_IDENTITY, W_SQUARE))


def sharp_value(kind: str, preset: str, params: dict):
    """(value, exact) for the pairs whose sharp bound the literature gives.

    ``exact`` False means only ``bound >= value`` is known: for starlike
    order_alpha with alpha > 3/4 the w = z member still gives (1-alpha)^2,
    while the paper's value is larger there.
    """
    if kind == "starlike":
        if preset == "halfplane":
            return 1.0, True
        if preset == "lemniscate":
            return 1.0 / 16.0, True
        if preset == "parabolic":
            return 16.0 / math.pi**4, True
        if preset == "strongly_beta":
            return params["beta"] ** 2, True
        if preset == "order_alpha":
            alpha = params["alpha"]
            return (1.0 - alpha) ** 2, alpha <= 0.75
    if kind == "convex" and preset == "halfplane":
        return 0.125, True
    return None


def close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + ABS_TOL


def at_least(x: float, y: float) -> bool:
    """x >= y up to the rounding of two independent routes."""
    return x >= y - REL_TOL * abs(y) - ABS_TOL


def check_bound(errors: list, label: str, bound: float, kind: str, phi, a: complex,
                class_params: dict, preset: str | None = None, params: dict | None = None) -> None:
    """Append to ``errors`` every way ``bound`` contradicts the references."""
    if not (isinstance(bound, float) and math.isfinite(bound)):
        errors.append(f"{label}: bound {bound!r} is not a finite float")
        return
    low = members_lower_bound(kind, phi, a, **class_params)
    if not at_least(bound, low):
        errors.append(f"{label}: bound {bound!r} below class member value {low!r}")
    if preset is not None:
        sharp = sharp_value(kind, preset, params or {})
        if sharp is not None:
            value, exact = sharp
            if exact and not close(bound, value):
                errors.append(f"{label}: bound {bound!r} differs from sharp value {value!r}")
            if not exact and not at_least(bound, value):
                errors.append(f"{label}: bound {bound!r} below {value!r}")


def check_verification(errors: list, label: str, sup: float, bound: float, violations: int,
                       max_c2: float, max_c3: float, kind: str, phi, class_params: dict) -> None:
    """Append to ``errors`` every way a verification result is impossible."""
    low = grid_lower_bound(kind, phi, **class_params)
    if not at_least(sup, low):
        errors.append(f"{label}: empirical_sup {sup!r} below on-grid member value {low!r}")
    if not sup <= bound + 1e-9:
        errors.append(f"{label}: empirical_sup {sup!r} exceeds bound {bound!r} by more than 1e-9")
    if violations != 0:
        errors.append(f"{label}: {violations} monotonicity violations")
    if not (max_c2 <= 2.0 + ABS_TOL and max_c3 <= 2.0 + ABS_TOL):
        errors.append(f"{label}: Caratheodory maxima |c2|={max_c2!r}, |c3|={max_c3!r} exceed 2")
