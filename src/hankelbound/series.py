"""Truncated Maclaurin series arithmetic over complex coefficients.

A series is a dense tuple of coefficients indexed by the power of z; every
operation truncates back to the stored order, so retained coefficients are
exact regardless of how the operands were produced.  Coefficients are kept
complex even when real so that rotated functions and complex weights need
no special casing downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Default order of a series.  The bound pipelines read only z^1..z^3, and
# ``targets.preset`` expands at order 3; order 8 is for the working series
# that ``hankelbound series`` prints and the tests check past z^3.
WORK_ORDER = 8


@dataclass(frozen=True)
class TruncatedSeries:
    """c0 + c1 z + ... + c_n z^n, standing in for a series cut at order n."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(v) for v in self.coeffs))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_coeffs(cls, values, order: int | None = None) -> "TruncatedSeries":
        """Build a series, padding with zeros or truncating to ``order``."""
        vals = [complex(v) for v in values]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            vals = vals[: order + 1]
            vals += [0j] * (order + 1 - len(vals))
        return cls(tuple(vals))

    @classmethod
    def constant(cls, value, order: int = WORK_ORDER) -> "TruncatedSeries":
        return cls.from_coeffs([value], order)

    @classmethod
    def z(cls, order: int = WORK_ORDER) -> "TruncatedSeries":
        return cls.from_coeffs([0.0, 1.0], order)

    # ------------------------------------------------------------------
    # basics

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> complex:
        return self.coeffs[k]

    def _same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def truncate(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs(self.coeffs, order)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._same_order(other)
            return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return TruncatedSeries((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._same_order(other)
            return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))
        return TruncatedSeries((self.coeffs[0] - other,) + self.coeffs[1:])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._same_order(other)
            n = self.order
            out = [0j] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    out[i + j] += a * other.coeffs[j]
            return TruncatedSeries(tuple(out))
        return TruncatedSeries(tuple(a * other for a in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return div(self, other)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return div(TruncatedSeries.constant(other, self.order), self)


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Long division: the q with q * b == a up to the stored order."""
    a._same_order(b)
    if b.coeffs[0] == 0:
        raise ZeroDivisionError("divisor has zero constant term")
    n = a.order
    out = [0j] * (n + 1)
    for k in range(n + 1):
        acc = a.coeffs[k]
        for i in range(k):
            acc -= out[i] * b.coeffs[k - i]
        out[k] = acc / b.coeffs[0]
    return TruncatedSeries(tuple(out))


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(z)) truncated at the common order; inner(0) must be 0."""
    outer._same_order(inner)
    if inner.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    result = TruncatedSeries.constant(outer.coeffs[-1], outer.order)
    for k in range(outer.order - 1, -1, -1):
        result = result * inner + outer.coeffs[k]
    return result


def elementary(kind: str, order: int = WORK_ORDER) -> TruncatedSeries:
    """Maclaurin series of a named elementary function.

    Supported kinds: ``exp``, ``log1p`` (log(1+z)) and ``sqrt1p`` (sqrt(1+z)).
    """
    if order < 3:
        raise ValueError("order must be at least 3")
    if kind == "exp":
        return TruncatedSeries(tuple(1.0 / math.factorial(k) for k in range(order + 1)))
    if kind == "log1p":
        coeffs = [0.0] + [(-1.0) ** (k + 1) / k for k in range(1, order + 1)]
        return TruncatedSeries(tuple(coeffs))
    if kind == "sqrt1p":
        coeffs = [1.0 + 0j]
        for k in range(1, order + 1):
            coeffs.append(coeffs[-1] * (1.5 - k) / k)
        return TruncatedSeries(tuple(coeffs))
    raise ValueError(f"unsupported series kind: {kind!r}")
