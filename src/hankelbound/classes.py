"""The four subordination-defined function classes and their coefficients.

Each class is pinned down by a target triple (B1, B2, B3) plus its own
parameters.  Coefficient extraction expands the defining identity in
a2, a3, a4 and inverts the (triangular) relations by back-substitution:

  starlike   z f'(z)/f(z)                    = 1 + a2 z + (2a3 - a2^2) z^2 + ...
  convex     1 + z f''(z)/f'(z)              = 1 + 2a2 z + (6a3 - 4a2^2) z^2 + ...
  rgt        1 + (f'(z) + g z f''(z) - 1)/tau
  galpha     (1-a) f'(z) + a (1 + z f''(z)/f'(z))

The closed forms in ``coefficient_arrays`` vectorise over numpy arrays; the
series route in ``coefficients_from_schwarz`` recomputes the same values by
composing the target with a Schwarz function, which the tests use as an
independent cross-check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import TruncatedSeries, compose
from .targets import PhiCoefficients, phi_to_series

# class kind -> the parameters it takes, in the order describe prints them
CLASS_PARAMS = {"starlike": (), "convex": (), "rgt": ("gamma", "tau"), "galpha": ("alpha",)}
KINDS = tuple(CLASS_PARAMS)


@dataclass(frozen=True)
class ClassSpec:
    """Which class, with its parameters and the target coefficients."""

    kind: str
    phi: PhiCoefficients
    alpha: float | None = None
    gamma: float | None = None
    tau: complex | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}; choose from {KINDS}")
        if not isinstance(self.phi, PhiCoefficients):
            raise ValueError("phi must be a PhiCoefficients instance")
        for name in ("alpha", "gamma", "tau"):
            if getattr(self, name) is not None and name not in CLASS_PARAMS[self.kind]:
                raise ValueError(f"{self.kind} takes no {name}")
        if self.kind == "galpha":
            if self.alpha is None or not 0.0 <= float(self.alpha) <= 1.0:
                raise ValueError(f"galpha needs alpha in [0, 1], got {self.alpha!r}")
            object.__setattr__(self, "alpha", float(self.alpha))
        elif self.kind == "rgt":
            if self.gamma is None or not 0.0 <= float(self.gamma) <= 1.0:
                raise ValueError(f"rgt needs gamma in [0, 1], got {self.gamma!r}")
            tau = complex(self.tau or 0)
            if not (tau and math.isfinite(tau.real) and math.isfinite(tau.imag)):
                raise ValueError(f"rgt needs a finite nonzero tau, got {self.tau!r}")
            object.__setattr__(self, "gamma", float(self.gamma))
            object.__setattr__(self, "tau", tau)

    @property
    def p(self) -> float | None:
        """Derived weight constant; defined for the rgt and galpha kinds."""
        if self.kind == "rgt":
            g = self.gamma
            return (8.0 / 9.0) * (1 + g) * (1 + 3 * g) / (1 + 2 * g) ** 2
        if self.kind == "galpha":
            a = self.alpha
            return (8.0 / 9.0) * (1 + 2 * a) / (1 + a)
        return None

    def describe(self) -> str:
        params = ", ".join(f"{name}={getattr(self, name):g}" for name in CLASS_PARAMS[self.kind])
        return f"{self.kind}({params})" if params else self.kind


def starlike(phi: PhiCoefficients) -> ClassSpec:
    return ClassSpec("starlike", phi)


def convex(phi: PhiCoefficients) -> ClassSpec:
    return ClassSpec("convex", phi)


def r_gamma_tau(phi: PhiCoefficients, gamma: float, tau: complex) -> ClassSpec:
    return ClassSpec("rgt", phi, gamma=gamma, tau=tau)


def g_alpha(phi: PhiCoefficients, alpha: float) -> ClassSpec:
    return ClassSpec("galpha", phi, alpha=alpha)


@dataclass(frozen=True)
class CoefficientTriple:
    """a2, a3, a4 of a class member; a1 is always 1."""

    a2: complex
    a3: complex
    a4: complex

    def __post_init__(self) -> None:
        for name in ("a2", "a3", "a4"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)


def _composed_target_terms(phi: PhiCoefficients, c1, c2, c3):
    """z^1..z^3 coefficients of phi((p-1)/(p+1)) for p = 1 + c1 z + c2 z^2 + c3 z^3."""
    b1, b2, b3 = phi.b1, phi.b2, phi.b3
    c1sq = c1 * c1
    t1 = 0.5 * b1 * c1
    t2 = 0.5 * b1 * (c2 - 0.5 * c1sq) + 0.25 * b2 * c1sq
    t3 = (
        b1 * (0.5 * c3 - 0.5 * c1 * c2 + 0.125 * c1sq * c1)
        + b2 * (0.5 * c1 * c2 - 0.25 * c1sq * c1)
        + 0.125 * b3 * c1sq * c1
    )
    return t1, t2, t3


def _invert_relations(spec: ClassSpec, t1, t2, t3):
    """Back-substitute the class expansion 1 + t1 z + t2 z^2 + t3 z^3 for a2, a3, a4."""
    if spec.kind == "starlike":
        a2 = t1
        a3 = 0.5 * (t2 + a2 * a2)
        a4 = (t3 + 3.0 * a2 * a3 - a2 * a2 * a2) / 3.0
    elif spec.kind == "convex":
        a2 = 0.5 * t1
        a3 = (t2 + 4.0 * a2 * a2) / 6.0
        a4 = (t3 + 18.0 * a2 * a3 - 8.0 * a2 * a2 * a2) / 12.0
    elif spec.kind == "rgt":
        g, tau = spec.gamma, spec.tau
        a2 = tau * t1 / (2.0 * (1 + g))
        a3 = tau * t2 / (3.0 * (1 + 2 * g))
        a4 = tau * t3 / (4.0 * (1 + 3 * g))
    else:  # galpha
        a = spec.alpha
        a2 = 0.5 * t1
        a3 = (t2 + 4.0 * a * a2 * a2) / (3.0 * (1 + a))
        a4 = (t3 + 18.0 * a * a2 * a3 - 8.0 * a * a2 * a2 * a2) / (4.0 * (1 + 2 * a))
    return a2, a3, a4


def coefficient_arrays(spec: ClassSpec, c1, c2, c3):
    """Vectorised (a2, a3, a4); accepts scalars or broadcastable numpy arrays."""
    return _invert_relations(spec, *_composed_target_terms(spec.phi, c1, c2, c3))


def coefficients_from_c(spec: ClassSpec, c1: complex, c2: complex, c3: complex) -> CoefficientTriple:
    """a2, a3, a4 of the member whose underlying p function has c1, c2, c3."""
    for name, v in (("c1", c1), ("c2", c2), ("c3", c3)):
        v = complex(v)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"{name} must be finite, got {v!r}")
    a2, a3, a4 = coefficient_arrays(spec, complex(c1), complex(c2), complex(c3))
    return CoefficientTriple(a2, a3, a4)


def coefficients_from_schwarz(spec: ClassSpec, w: TruncatedSeries) -> CoefficientTriple:
    """a2, a3, a4 of the member built from a Schwarz-function series w, w(0) = 0.

    Computed by composing the full target series with w, independently of the
    closed forms in ``coefficient_arrays``.
    """
    if w[0] != 0:
        raise ValueError(f"Schwarz series must vanish at 0, got constant term {w[0]!r}")
    composed = compose(phi_to_series(spec.phi, w.order), w)
    a2, a3, a4 = _invert_relations(spec, composed[1], composed[2], composed[3])
    return CoefficientTriple(a2, a3, a4)


def hankel2(t: CoefficientTriple) -> float:
    """|a2 a4 - a3^2|, the second Hankel determinant in absolute value."""
    return abs(t.a2 * t.a4 - t.a3 * t.a3)
