"""Coefficient triples (B1, B2, B3) for subordination targets.

Presets are expanded through the series engine rather than hard-coded, so a
regression in the series arithmetic shows up here immediately.  Only the
first three Maclaurin coefficients are exported; they are what the bound
pipelines consume.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .series import TruncatedSeries, WORK_ORDER, compose, div, elementary

# Leading coefficients below this are rejected rather than extrapolated.
MIN_B1 = 1e-12

# Series kept per parameterised preset, about 0.6 KB each: a long-lived
# process stays bounded, and a sweep's few hundred parameters still fit.
_PRESET_CACHE_SIZE = 1024


@dataclass(frozen=True)
class PhiCoefficients:
    """First three Maclaurin coefficients of a target w(0)=1 map, B1 > 0."""

    b1: float
    b2: float
    b3: float
    label: str = "custom"

    def __post_init__(self) -> None:
        for name in ("b1", "b2", "b3"):
            raw = getattr(self, name)
            try:
                value = float(raw)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name} must be a real number, got {raw!r}") from exc
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.b1 < MIN_B1:
            raise ValueError(f"b1 must be positive (at least {MIN_B1:g}), got {self.b1!r}")


def custom(b1: float, b2: float, b3: float, label: str = "custom") -> PhiCoefficients:
    """Validated coefficients for a user-supplied target."""
    return PhiCoefficients(b1, b2, b3, label)


def _triple_from_series(s: TruncatedSeries, label: str) -> PhiCoefficients:
    if abs(s[0] - 1.0) > 1e-12:
        raise ValueError(f"target series must have constant term 1, got {s[0]!r}")
    values = []
    for k in (1, 2, 3):
        c = s[k]
        if abs(c.imag) > 1e-12:
            raise ValueError(f"target coefficient of z^{k} is not real: {c!r}")
        values.append(c.real)
    return PhiCoefficients(values[0], values[1], values[2], label)


@lru_cache(maxsize=None)
def _halfplane_series(order: int) -> TruncatedSeries:
    z = TruncatedSeries.z(order)
    return div(1 + z, 1 - z)


@lru_cache(maxsize=_PRESET_CACHE_SIZE)
def _order_alpha_series(alpha: float, order: int) -> TruncatedSeries:
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"order_alpha needs alpha in [0, 1), got {alpha}")
    z = TruncatedSeries.z(order)
    return div(1 + (1 - 2 * alpha) * z, 1 - z)


@lru_cache(maxsize=_PRESET_CACHE_SIZE)
def _strongly_beta_series(beta: float, order: int) -> TruncatedSeries:
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"strongly_beta needs beta in (0, 1], got {beta}")
    z = TruncatedSeries.z(order)
    lp = elementary("log1p", order)
    log_ratio = lp - compose(lp, -z)  # log((1+z)/(1-z))
    return compose(elementary("exp", order), beta * log_ratio)


@lru_cache(maxsize=None)
def _lemniscate_series(order: int) -> TruncatedSeries:
    return elementary("sqrt1p", order)


@lru_cache(maxsize=None)
def _parabolic_series(order: int) -> TruncatedSeries:
    # The target is 1 + (2/pi^2) L(sqrt(z))^2 with L(u) = log((1+u)/(1-u)).
    # L is odd, so L(u)^2 is even and the even coefficients form an ordinary
    # power series in z; no fractional powers ever materialise.
    u_order = 2 * order
    u = TruncatedSeries.z(u_order)
    lp = elementary("log1p", u_order)
    L = lp - compose(lp, -u)
    squared = L * L
    scale = 2.0 / math.pi**2
    coeffs = [1.0] + [scale * squared[2 * m] for m in range(1, order + 1)]
    return TruncatedSeries.from_coeffs(coeffs, order)


@lru_cache(maxsize=_PRESET_CACHE_SIZE)
def _janowski_series(a: float, b: float, order: int) -> TruncatedSeries:
    if not (-1.0 <= b < a <= 1.0):
        raise ValueError(f"janowski needs -1 <= B < A <= 1, got A={a}, B={b}")
    z = TruncatedSeries.z(order)
    return div(1 + a * z, 1 + b * z)


# name -> (its cached series builder, the builder's parameters in call order)
PRESETS = {
    "halfplane": (_halfplane_series, ()),
    "order_alpha": (_order_alpha_series, ("alpha",)),
    "strongly_beta": (_strongly_beta_series, ("beta",)),
    "lemniscate": (_lemniscate_series, ()),
    "parabolic": (_parabolic_series, ()),
    "janowski": (_janowski_series, ("a", "b")),
}
PRESET_NAMES = tuple(PRESETS)


def preset_series(name: str, order: int = WORK_ORDER, **params: float) -> TruncatedSeries:
    """Full working series of a named preset target."""
    if name not in PRESET_NAMES:  # a tuple: an unhashable name is refused, not a TypeError
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    build, names = PRESETS[name]
    if params.keys() != set(names):
        raise ValueError(f"preset {name} takes parameters ({', '.join(names)}), got ({', '.join(params)})")
    return build(*(float(params[p]) for p in names), order)


def preset(name: str, **params: float) -> PhiCoefficients:
    """Coefficients of a named preset target.

    ``order_alpha`` takes ``alpha`` in [0, 1), ``strongly_beta`` takes
    ``beta`` in (0, 1], ``janowski`` takes ``a`` and ``b`` with
    -1 <= b < a <= 1; the other presets take no parameters.  A missing or
    unexpected parameter raises ``ValueError``.
    """
    # B1..B3 are the same bits at order 3 as at WORK_ORDER, at a fraction of the cost
    series = preset_series(name, order=3, **params)
    if params:
        inner = ",".join(f"{k}={float(v):g}" for k, v in sorted(params.items()))
        label = f"{name}({inner})"
    else:
        label = name
    return _triple_from_series(series, label)


def phi_to_series(phi: PhiCoefficients, order: int = WORK_ORDER) -> TruncatedSeries:
    """The working series 1 + B1 z + B2 z^2 + B3 z^3 of a coefficient triple."""
    return TruncatedSeries.from_coeffs([1.0, phi.b1, phi.b2, phi.b3], order)


def load_phi_file(path) -> PhiCoefficients:
    """Read a custom target from a JSON document with keys B1, B2, B3, label."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed phi config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"phi config {path} must be a JSON object")
    missing = [k for k in ("B1", "B2", "B3") if k not in data]
    if missing:
        raise ValueError(f"phi config {path} is missing keys: {', '.join(missing)}")
    # a JSON number loads as int or float; bool is an int subclass but true/false are not numbers
    for key in ("B1", "B2", "B3"):
        if isinstance(data[key], bool) or not isinstance(data[key], (int, float)):
            raise ValueError(f"phi config {path}: {key} must be a JSON number, got {data[key]!r}")
    label = data.get("label", "custom")
    if not isinstance(label, str):
        raise ValueError(f"phi config {path}: label must be a string, got {label!r}")
    return custom(data["B1"], data["B2"], data["B3"], label)
