"""Upper bounds for |a2 a4 - a3^2| via reduced quadratics.

Every class reduces the functional exactly to

    T |d1 c1 c3 + d2 c1^2 c2 + d3 c2^2 + d4 c1^4|,

and the paper's closed forms come out as T * max over t in [0, 4] of
P t^2 + Q t + R, where (P, Q, R, T) depend only on the target coefficients
and the class parameters; ``certified_quadratic`` gives R, starlike's Q and
rgt's P and Q, the paper's up to rounding.  The maximum has three regions:

  caseR        Q <= 0 and P <= -Q/4          -> R
  case16P4QR   Q >= 0, P >= -Q/8  or
               Q <= 0, P >= -Q/4             -> 16P + 4Q + R
  caseVertex   Q > 0 and P <= -Q/8           -> (4PR - Q^2) / (4P)

On region boundaries the values coincide and the first matching region in
the order above is reported.  ``robust_quad_max`` recomputes the same
maximum by endpoint/vertex enumeration with no region logic; ``branch`` and
``closed_form_value`` label and state that paper-form value.

Convex is galpha at alpha = 1 and is computed by the galpha formulas with
that weight (``ClassSpec.blend``); it has no formulas of its own.

The starlike, convex and galpha closed forms keep the quartic coefficient
signed, so on their own they can fall below the true supremum.  The
reported ``bound`` is therefore the larger of the paper-form value and a
certified value: the Caratheodory parameterisation of (c2, c3) with the
triangle inequality applied term by term to the (T, d1..d4) functional,
which is an upper bound for every admissible target by construction: T times
the maximum of ``certified_quadratic``, kept by ``profile`` as ``certified``.
``bound`` may thus exceed ``closed_form_value``; ``majorant_surface`` is that
majorant in (c, mu = |x|), with ``certified_quadratic`` its mu = 1 section.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .classes import ClassSpec

CASE_R = "caseR"
CASE_ENDPOINT = "case16P4QR"
CASE_VERTEX = "caseVertex"
BRANCHES = (CASE_R, CASE_ENDPOINT, CASE_VERTEX)


@dataclass(frozen=True)
class QuadraticProfile:
    """Reduced-quadratic data (P, Q, R, T), the weights d1..d4, and ``certified_quadratic``'s triple."""

    P: float
    Q: float
    R: float
    T: float
    d1: float
    d2: float
    d3: float
    d4: float
    certified: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R!r}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T!r}")


@dataclass(frozen=True)
class BoundResult:
    """The bound, which region produced it, and the backing data."""

    bound: float
    branch: str
    profile: QuadraticProfile
    closed_form_value: float
    spec: ClassSpec
    certified_value: float


def profile(spec: ClassSpec) -> QuadraticProfile:
    """Exact (P, Q, R, T, d1..d4), convex as galpha at alpha = 1: each class gives
    T, d1..d4 and the paper's leading coefficients, ``certified_quadratic`` the rest."""
    b1, b2, b3 = spec.phi.b1, spec.phi.b2, spec.phi.b3
    ab2, ab3 = abs(b2), abs(b3)
    if spec.kind == "starlike":
        d1 = 8.0 * b1
        d2 = 2.0 * (b2 - b1)
        d3 = -6.0 * b1
        d4 = -0.5 * b1**3 + 0.5 * b1 - b2 + 2.0 * b3 - 1.5 * b2 * b2 / b1
        T = b1 / 96.0
        paper = (0.25 * (-2.0 * b1**3 + 8.0 * ab3 - 6.0 * b2 * b2 / b1 - ab2 - 0.5 * b1),)
    elif spec.kind == "rgt":
        p = spec.p
        g = spec.gamma
        r = b2 / b1
        d1 = 4.0
        d2 = -4.0 * (1.0 - r + p * (r - 1.0))
        d3 = -4.0 * p
        d4 = 1.0 - 2.0 * r - p * (r - 1.0) ** 2 + b3 / b1
        T = abs(spec.tau) ** 2 * b1 * b1 / (128.0 * (1 + g) * (1 + 3 * g))
        paper = ()
    else:  # galpha, convex as its alpha = 1
        p = spec.p
        a = spec.blend
        d1 = 4.0 * (1 + a) * b1
        d2 = 2.0 * (
            -2.0 * (1 + a) * b1 + 3.0 * a * b1 * b1 + 2.0 * (1 + a) * b2 - 2.0 * p * (a * b1 * b1 - b1 + b2)
        )
        d3 = -4.0 * p * b1
        d4 = (
            -3.0 * a * b1 * b1
            + a * (2 * a - 1) * b1**3
            + b1 * (1 + a)
            + 3.0 * a * b1 * b2
            + (1 + a) * (b3 - 2.0 * b2)
            - p * (a * b1 * b1 - b1 + b2) ** 2 / b1
        )
        T = b1 / (128.0 * (1 + a) * (1 + 2 * a))
        paper = (
            b1**3 * a * (2 * a - 1 - p * a)
            + a * b1 * ab2 * (3 - 2 * p)
            - b1 * b1 * a * (3 - 2 * p)
            + (a + 1) * ab3
            - (1 + a - p) * (2.0 * ab2 + b1)
            - p * b2 * b2 / b1,
            4.0 * (b1 * b1 * a * (3 - 2 * p) + 2.0 * ab2 * (1 + a - p) + b1 * (1 + a - 2 * p)),
        )
    if T < sys.float_info.min:  # B1 > 0 and tau != 0, so only underflow leaves the normal range
        raise ValueError(f"bound of {spec.describe()} underflows at this target's magnitude")
    rule = certified_quadratic(d1, d2, d3, d4)
    P, Q, R = paper + rule[len(paper):]
    return QuadraticProfile(P=P, Q=Q, R=R, T=T, d1=d1, d2=d2, d3=d3, d4=d4, certified=rule)


def quad_max(P: float, Q: float, R: float) -> tuple[float, str]:
    """Maximum of P t^2 + Q t + R over t in [0, 4], with its region label."""
    if Q <= 0 and P <= -Q / 4:
        return R, CASE_R
    if (Q >= 0 and P >= -Q / 8) or (Q <= 0 and P >= -Q / 4):
        return 16.0 * P + 4.0 * Q + R, CASE_ENDPOINT
    # remaining region: Q > 0 and P <= -Q/8, hence P < 0 and 4P != 0
    if not (Q > 0 and P < 0):
        raise ValueError(f"no region of the quadratic holds P={P!r}, Q={Q!r}")
    return (4.0 * P * R - Q * Q) / (4.0 * P), CASE_VERTEX


def robust_quad_max(P: float, Q: float, R: float) -> float:
    """The same maximum by candidate enumeration: endpoints plus an interior
    critical point when there is one."""
    best = max(R, 16.0 * P + 4.0 * Q + R)
    if P != 0:
        t = -Q / (2.0 * P)
        if 0.0 < t < 4.0:
            best = max(best, (P * t + Q) * t + R)
    return best


def _closed_form(spec: ClassSpec, branch: str) -> float:
    """The branch value written in closed form straight from the target data."""
    b1 = spec.phi.b1
    ab2, ab3 = abs(spec.phi.b2), abs(spec.phi.b3)
    b2sq = spec.phi.b2 ** 2
    if spec.kind == "starlike":
        if branch == CASE_R:
            return b1 * b1 / 4.0
        if branch == CASE_ENDPOINT:
            return (-4.0 * b1**4 + 16.0 * b1 * ab3 - 12.0 * b2sq + 6.0 * b1 * ab2 + 3.0 * b1 * b1) / 48.0
        num = 12.0 * b1**4 - 48.0 * b1 * ab3 + 40.0 * b2sq - 2.0 * b1 * ab2 + 7.0 * b1 * b1
        den = 4.0 * b1**4 - 16.0 * b1 * ab3 + 12.0 * b2sq + 2.0 * b1 * ab2 + b1 * b1
        return (b1 * b1 / 12.0) * num / den
    if spec.kind == "rgt":
        p = spec.p
        g = spec.gamma
        t2 = abs(spec.tau) ** 2
        m = abs(b1 * spec.phi.b3 - p * b2sq)
        if branch == CASE_R:
            return t2 * b1 * b1 / (9.0 * (1 + 2 * g) ** 2)
        if branch == CASE_ENDPOINT:
            return t2 * m / (8.0 * (1 + g) * (1 + 3 * g))
        num = 4.0 * p * m - 4.0 * (1 - p) * b1 * (ab2 + p * b1) - 4.0 * b2sq * (1 - p) ** 2 - b1 * b1 * (1 - 2 * p) ** 2
        den = m - (1 - p) * b1 * (2.0 * ab2 + b1)
        return (t2 * b1 * b1 / (32.0 * (1 + g) * (1 + 3 * g))) * num / den
    # galpha, convex as its alpha = 1
    p = spec.p
    a = spec.blend
    if branch == CASE_R:
        return b1 * b1 / (9.0 * (1 + a) ** 2)
    if branch == CASE_ENDPOINT:
        return (
            b1**4 * a * (2 * a - 1 - p * a)
            + a * b1 * b1 * ab2 * (3 - 2 * p)
            + (a + 1) * b1 * ab3
            - p * b2sq
        ) / (8.0 * (1 + a) * (1 + 2 * a))
    qline = b1 * b1 * a * (3 - 2 * p) + 2.0 * ab2 * (1 + a - p) + b1 * (1 + a - 2 * p)
    den = (
        b1**4 * a * (2 * a - 1 - p * a)
        + a * b1 * b1 * ab2 * (3 - 2 * p)
        - b1**3 * a * (3 - 2 * p)
        + (a + 1) * b1 * ab3
        - (1 + a - p) * b1 * (2.0 * ab2 + b1)
        - p * b2sq
    )
    return (b1 * b1 / (32.0 * (1 + a) * (1 + 2 * a))) * (4.0 * p - qline * qline / den)


def majorant_weights(d1: float, d2: float, d3: float, d4: float) -> tuple[float, float]:
    """The quartic and linear weights (|K4|, |d1+d2+d3|) of the triangle
    majorant of |d1 c1 c3 + d2 c1^2 c2 + d3 c2^2 + d4 c1^4|.

    With c1 = c, s = 4 - c^2, 2 c2 = c^2 + x s and
    4 c3 = c^3 + 2 s c x - c s x^2 + 2 s (1-|x|^2) z, the triangle inequality
    gives, for mu = |x|,

        |K4| c^4 + |d1+d2+d3|/2 c^2 s mu + s mu^2 |d3 s - d1 c^2|/4
            + d1/2 c s (1 - mu^2),          K4 = d1/4 + d2/2 + d3/4 + d4.

    Premise, checked here: d1 > 0, d3 <= 0 and 2|d3| >= d1, which every
    admissible parameter of the four classes satisfies.  Then the mu^2
    coefficient is s (c - 2)((d1 - |d3|) c/4 - |d3|/2) >= 0 on [0, 2] and the
    majorant is non-decreasing in mu.
    """
    if not (d1 > 0 and d3 <= 0 and 2.0 * abs(d3) >= d1):
        raise ValueError(
            f"certified bound needs d1 > 0, d3 <= 0, 2|d3| >= d1; got d1={d1!r}, d3={d3!r}"
        )
    return abs(d1 / 4.0 + d2 / 2.0 + d3 / 4.0 + d4), abs(d1 + d2 + d3)


def certified_quadratic(d1: float, d2: float, d3: float, d4: float) -> tuple[float, float, float]:
    """(P', Q', R') with T * max over t in [0, 4] of P' t^2 + Q' t + R' an
    upper bound for T |d1 c1 c3 + d2 c1^2 c2 + d3 c2^2 + d4 c1^4|: the
    mu = 1 section, in t = c^2, of the majorant of ``majorant_weights``,
    which is where that majorant peaks.
    """
    quartic, linear = majorant_weights(d1, d2, d3, d4)
    return (
        quartic - linear / 2.0 - (d1 - abs(d3)) / 4.0,
        2.0 * linear + d1 - 2.0 * abs(d3),
        4.0 * abs(d3),
    )


def majorant_surface(spec: ClassSpec, c, mu):
    """The majorant F(c, mu) of |a2 a4 - a3^2| that the certified value is
    maximised through: T times the triangle majorant of ``majorant_weights``.

    For every x and z with |x| = mu and |z| <= 1 it dominates
    |a2 a4 - a3^2| at c1 = c, it is non-decreasing in mu, and its mu = 1
    section is ``certified_quadratic`` in t = c^2.  Plain arithmetic: it
    takes floats, and broadcasts over numpy arrays.
    """
    prof = profile(spec)
    quartic, linear = majorant_weights(prof.d1, prof.d2, prof.d3, prof.d4)
    s = 4.0 - c * c
    c2 = c * c
    return prof.T * (
        quartic * c2 * c2
        + 0.5 * linear * c2 * s * mu
        + 0.25 * s * mu * mu * abs(prof.d3 * s - prof.d1 * c2)
        + 0.5 * prof.d1 * c * s * (1.0 - mu * mu)
    )


def second_hankel_bound(spec: ClassSpec) -> BoundResult:
    """The upper bound for |a2 a4 - a3^2| over the class.

    ``bound`` is the largest of the paper-form value T * max P t^2 + Q t + R,
    enumerated or as ``closed_form_value`` (labelled by ``branch``), and the
    certified value from the profile's ``certified``; ties go to the paper form.
    The certified value rests on d1 > 0, d3 <= 0 and 2|d3| >= d1 (starlike
    12 >= 8, rgt p >= 64/81 > 1/2, galpha 2p >= 1 + alpha, so convex
    8/3 >= 2, all in units of B1); a ValueError is raised if that premise
    ever fails.  A ValueError is also raised when a value overflows or is
    not finite, or when the three paper-form evaluations disagree, as
    overflow and cancellation make them do at extreme target magnitudes.
    """
    try:
        prof = profile(spec)
        if math.isnan(prof.P) or math.isnan(prof.Q):
            # quad_max would find no region of a nan quadratic
            raise ValueError(f"bound of {spec.describe()} is not finite at this target's magnitude")
        branch_value, branch = quad_max(prof.P, prof.Q, prof.R)
        paper = prof.T * robust_quad_max(prof.P, prof.Q, prof.R)
        closed = _closed_form(spec, branch)
        certified = prof.T * robust_quad_max(*prof.certified)
    except OverflowError as exc:
        # float ** raises where * gives inf; both are the same bad target
        raise ValueError(f"bound of {spec.describe()} overflows at this target's magnitude") from exc
    region = prof.T * branch_value
    # max() in robust_quad_max lets a nan through, so its inputs are checked
    # as well; a sum is inf or nan whenever any of its terms is
    if not math.isfinite(prof.P + prof.Q + prof.R + prof.T + sum(prof.certified) + paper + closed + certified + region):
        raise ValueError(f"bound of {spec.describe()} is not finite at this target's magnitude")
    if not (
        math.isclose(region, paper, rel_tol=1e-9, abs_tol=1e-15)
        and math.isclose(closed, region, rel_tol=1e-9, abs_tol=1e-12)
    ):
        raise ValueError(
            f"paper-form values of {spec.describe()} disagree at this target's magnitude: "
            f"closed form {closed!r}, region {region!r}, endpoint/vertex {paper!r}"
        )
    bound = max(paper, closed, certified)
    return BoundResult(
        bound=bound,
        branch=branch,
        profile=prof,
        closed_form_value=closed,
        spec=spec,
        certified_value=certified,
    )
