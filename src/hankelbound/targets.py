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

# Preset triples kept, 0.29-0.40 KB each (tracemalloc, Python 3.11), so at
# most about 1.2 MB.  3 x 1,024 holds a whole benchmark sweep_presets epoch,
# up to 1,568 distinct presets, which 1,024 entries would evict within.
_PRESET_CACHE_SIZE = 3 * 1024


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


def _janowski_series(a: float, b: float, order: int) -> TruncatedSeries:
    if not (-1.0 <= b < a <= 1.0):
        raise ValueError(f"janowski needs -1 <= B < A <= 1, got A={a}, B={b}")
    z = TruncatedSeries.z(order)
    return div(1 + a * z, 1 + b * z)


def _order_alpha_series(alpha: float, order: int) -> TruncatedSeries:
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"order_alpha needs alpha in [0, 1), got {alpha}")
    return _janowski_series(1 - 2 * alpha, -1.0, order)


def _log_ratio(order: int) -> TruncatedSeries:
    """L(z) = log((1+z)/(1-z))."""
    lp = elementary("log1p", order)
    return lp - compose(lp, -TruncatedSeries.z(order))


def _strongly_beta_series(beta: float, order: int) -> TruncatedSeries:
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"strongly_beta needs beta in (0, 1], got {beta}")
    return compose(elementary("exp", order), beta * _log_ratio(order))


def _parabolic_series(order: int) -> TruncatedSeries:
    # The target is 1 + (2/pi^2) L(sqrt(z))^2.  L is odd, so L(u)^2 is even
    # and its even coefficients form an ordinary power series in z; no
    # fractional powers ever materialise.
    L = _log_ratio(2 * order)
    squared = L * L
    scale = 2.0 / math.pi**2
    coeffs = [1.0] + [scale * squared[2 * m] for m in range(1, order + 1)]
    return TruncatedSeries.from_coeffs(coeffs, order)


# name -> (its series builder, the builder's parameters in call order).  The
# half-plane and order-alpha targets are the Janowski targets P[1, -1] and
# P[1 - 2 alpha, -1]; the strongly starlike and parabolic ones share L.
PRESETS = {
    "halfplane": (lambda order: _janowski_series(1.0, -1.0, order), ()),
    "order_alpha": (_order_alpha_series, ("alpha",)),
    "strongly_beta": (_strongly_beta_series, ("beta",)),
    "lemniscate": (lambda order: elementary("sqrt1p", order), ()),
    "parabolic": (_parabolic_series, ()),
    "janowski": (_janowski_series, ("a", "b")),
}
PRESET_NAMES = tuple(PRESETS)


def _preset_values(name: str, params: dict) -> tuple[float, ...]:
    """The parameters of preset ``name`` as floats in its builder's call order."""
    if name not in PRESET_NAMES:  # a tuple: an unhashable name is refused, not a TypeError
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    names = PRESETS[name][1]
    if params.keys() != set(names):
        raise ValueError(f"preset {name} takes parameters ({', '.join(names)}), got ({', '.join(params)})")
    return tuple(float(params[p]) for p in names)


def preset_series(name: str, order: int = WORK_ORDER, **params: float) -> TruncatedSeries:
    """Full working series of a named preset target, built afresh."""
    values = _preset_values(name, params)
    return PRESETS[name][0](*values, order)


@lru_cache(maxsize=_PRESET_CACHE_SIZE)
def _preset_triple(name: str, *values: float) -> tuple[float, float, float]:
    # B1..B3 are the same bits at order 3 as at WORK_ORDER, at a fraction of the cost
    s = preset_series(name, 3, **dict(zip(PRESETS[name][1], values)))
    if abs(s[0] - 1.0) > 1e-12:
        raise ValueError(f"target series must have constant term 1, got {s[0]!r}")
    for k in (1, 2, 3):
        if abs(s[k].imag) > 1e-12:
            raise ValueError(f"target coefficient of z^{k} is not real: {s[k]!r}")
    return s[1].real, s[2].real, s[3].real


def preset(name: str, **params: float) -> PhiCoefficients:
    """Coefficients of a named preset target.

    ``order_alpha`` takes ``alpha`` in [0, 1), ``strongly_beta`` takes
    ``beta`` in (0, 1], ``janowski`` takes ``a`` and ``b`` with
    -1 <= b < a <= 1; the other presets take no parameters.  A missing or
    unexpected parameter raises ``ValueError``.
    """
    b1, b2, b3 = _preset_triple(name, *_preset_values(name, params))
    # outside the cache: -0.0 and 0.0 are one key but print differently
    if params:
        inner = ",".join(f"{k}={float(v):g}" for k, v in sorted(params.items()))
        label = f"{name}({inner})"
    else:
        label = name
    return PhiCoefficients(b1, b2, b3, label)


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
