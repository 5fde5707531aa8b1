"""Independent verification of the reported bounds.

The coefficients (c1, c2, c3) of every positive-real-part function are
reachable as

    c1 = c in [0, 2]      (after rotation)
    2 c2 = c^2 + x (4 - c^2)
    4 c3 = c^3 + 2 (4-c^2) c x - c (4-c^2) x^2 + 2 (4-c^2) (1-|x|^2) z

with |x| <= 1 and |z| <= 1, so maximising |a2 a4 - a3^2| over a grid in c,
exactly in x and z, gives a certified lower estimate of the true supremum,
to be held against the reported bound.  It works from the class
coefficients alone, never from (T, d1..d4), so it checks the bound
independently.

At fixed c the maximum has a closed form.  ``classes._composed_target_terms``
leaves t1 and t2 free of c3 and gives t3 = B1 c3 / 2 + (terms in c1, c2),
and ``classes._invert_relations`` leaves a2 and a3 free of t3 and makes a4
affine in t3 with a coefficient that depends only on the class.  So
a2 a4 - a3^2 = h0 + hz z, whose maximum over the z disk is |h0| + |hz|,
taken where hz z has the phase of h0.  t1 = B1 c1 / 2 leaves a2 free of x,
so hz = hz_unit (1 - |x|^2), with hz_unit the z-term read at x = 0.  a3 is
affine in x and a4 quadratic, so h0 = A + B x + C x^2.  For real B1, B2, B3
(``PhiCoefficients`` enforces them) and real class parameters, A, B and
C are real; rgt's tau multiplies all three by tau^2.  So once one common
phase is taken out, the maximum over both disks is

    max over |x| <= 1 of |A + B x + C x^2| + D (1 - |x|^2),   D = |hz_unit|,

which the lemma of Choi, Kim and Sugawa (J. Math. Soc. Japan 59 (2007))
gives in seven cases (``_lemma_case``) from what ``_quadratic_in_x`` reads.

``check_mu_monotone`` checks the other side: that
``bounds.majorant_surface``, the triangle majorant in (c, mu = |x|) that
the certified value is maximised through, peaks at mu = 1.

``check_caratheodory_bounds`` checks the parameterisation itself on seeded
points: |c2| and |c3| stay at most 2.  c3 is affine in z, so its points are
(c, x) pairs crossed with shared z points.  The points come from two
seeded R_d lattices, Weyl's additive recurrence frac(s + n alpha) with
Roberts' alpha: R_3 for the pairs and R_2 for z, each kept where its disk
coordinate lies in the disk.  Candidate n is a function of n and the seed
alone, in uint64 arithmetic, so the points are bit-reproducible and
``numpy.random`` is never imported.  Work is capped: no array holds more
than ``MAX_SLICE_POINTS`` points, and at most ``MAX_SAMPLES`` samples are
drawn, refused with a ``ValueError`` before anything is built.  numpy is
imported by the functions that use it, not by this module, so ``import
hankelbound``, the ``bound``, ``series`` and ``sweep`` commands, and
``expand_arrays`` on plain numbers run without it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .bounds import majorant_surface, second_hankel_bound
from .classes import ClassSpec, coefficient_arrays

DEFAULT_GRID = (64, 32, 64)
DEFAULT_MU_GRID = (64, 64)
DEFAULT_SEED = 1729
_MIN_GRID = 8
# the most points in any array the verifier builds (4 n_c, n_r * n_theta or
# n_c * n_mu); at 2^16 points each traces a peak of at most 8.3 MB
MAX_SLICE_POINTS = 2**16
MAX_SAMPLES = 10_000_000
# at most this many points per expand_arrays call, a slice of the ring check
# at z = 0 or a sample block's (256, 16) pairs x z, and at most this many
# pairs drawn at once: a complex temporary is then at most 64 KB, under
# glibc's 128 KB mmap threshold
_BLOCK = 4096
_Z_PER_PAIR = 16
# Roberts' R_d lattices: A_j = floor(g^-j 2^64), j = 1..d, with g the root
# of g^(d+1) = g + 1 greater than 1; R_3 draws the (c, x) pairs, R_2 the z
_PAIR_STEPS = (0xD1B54A32D192ED03, 0xABC98388FB8FAC02, 0x8CB92BA72F3D8DD7)
_Z_STEPS = (0xC13FA9A902A6328F, 0x91E10DA5C79E7B1C)
_MASK64 = 2**64 - 1
# Boundary points (c, x, z), stored column-wise: (2, 0.25+0.5i, 0.5i) gives
# |c2| = |c3| = 2, and (0, 1, -1) gives only |c2| = 2.
_RIDE_ALONG = ((2.0, 0.0), (0.25 + 0.5j, 1.0 + 0j), (0.5j, -1.0 + 0j))


@dataclass(frozen=True)
class CaratheodoryPoint:
    """A point of the (c, x, z) parameter domain; mu is |x|."""

    c: float
    x: complex
    z: complex

    def __post_init__(self) -> None:
        if not 0.0 <= self.c <= 2.0:
            raise ValueError(f"c must lie in [0, 2], got {self.c!r}")
        if not abs(self.x) <= 1.0 + 1e-12:
            raise ValueError(f"|x| must be at most 1, got {abs(self.x)!r}")
        if not abs(self.z) <= 1.0 + 1e-12:
            raise ValueError(f"|z| must be at most 1, got {abs(self.z)!r}")
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "z", complex(self.z))

    @property
    def mu(self) -> float:
        return min(abs(self.x), 1.0)


@dataclass(frozen=True)
class VerificationReport:
    """Grid supremum versus reported bound, with the winning point."""

    empirical_sup: float
    bound: float
    argmax: CaratheodoryPoint
    margin: float
    grid_sizes: tuple[int, int, int]
    monotonicity_violations: int


def _disk_weight(x):
    """1 - |x|^2, written (1 - |x|)(1 + |x|) so it vanishes exactly on the
    unit circle whenever |x| is exactly representable."""
    ax = abs(x)
    return (1.0 - ax) * (1.0 + ax)


def expand_arrays(c, x, z):
    """(c1, c2, c3) from c, x, z, arrays or plain numbers; broadcasts like numpy.

    c3 is its z = 0 value plus the z-term (4 - c^2)(1 - |x|^2) z / 2.
    """
    s = 4.0 - c * c
    c3 = 0.25 * (c * c * c + 2.0 * s * c * x - c * s * x * x) + 0.5 * s * _disk_weight(x) * z
    return c + 0j, 0.5 * (c * c + x * s), c3


def _quadratic_in_x(spec: ClassSpec, c):
    """(phase, abc, hz_unit, terms) at each c of the array ``c``: h0 = phase
    (A + B x + C x^2) with the rows of ``abc`` A, B, C real,
    hz = hz_unit (1 - |x|^2), and ``terms`` the largest |a2 a4| + |a3|^2.

    All come from one ``coefficient_arrays`` call at (x, z) in
    {(0, 0), (1, 0), (-1, 0), (0, 1)}; hz_unit is h(0, 1) - h(0, 0).
    ``phase`` is the phase of the largest of A, B and C.  A ValueError is
    raised at the first c where ``terms`` is nonzero but below the normal
    float range, where a reading is not finite, or where what is left after
    taking the phase out is not real to 1e-12 of that largest value.
    """
    import numpy as np
    x = np.array([[0j], [1 + 0j], [-1 + 0j], [0j]])
    z = np.array([[0j], [0j], [0j], [1 + 0j]])
    a2, a3, a4 = coefficient_arrays(spec, *expand_arrays(c, x, z))
    h = a2 * a4 - a3 * a3  # rows at (x, z) = (0, 0), (1, 0), (-1, 0), (0, 1)
    terms = np.max(np.abs(a2 * a4) + np.abs(a3) ** 2, axis=0)
    subnormal = (terms > 0) & (terms < sys.float_info.min)
    if subnormal.any():  # before the phase is divided out, which overflows there
        ic = int(np.argmax(subnormal))
        raise ValueError(f"the functional of {spec.describe()} at c={float(c[ic])!r} underflows at this target's magnitude")
    abc = np.stack((h[0], 0.5 * (h[1] - h[2]), 0.5 * (h[1] + h[2]) - h[0]))
    largest = np.take_along_axis(abc, np.argmax(np.abs(abc), axis=0)[None, :], axis=0)[0]
    size = np.abs(largest)
    phase = np.where(size > 0, largest / np.where(size > 0, size, 1.0), 1.0)
    abc, hz_unit = abc / phase, h[3] - h[0]
    finite = np.isfinite(abc).all(axis=0) & np.isfinite(hz_unit)
    if not finite.all():
        raise ValueError(f"the functional of {spec.describe()} at c={float(c[np.argmin(finite)])!r} is not finite")
    residual = np.max(np.abs(abc.imag), axis=0)
    if np.any(residual > 1e-12 * size):
        ic = int(np.argmax(residual - 1e-12 * size))
        raise ValueError(
            f"h0 of {spec.describe()} at c={float(c[ic])!r} is not a quadratic with one phase: "
            f"an imaginary part {float(residual[ic])!r} is left of {float(size[ic])!r}"
        )
    return phase, abc.real, hz_unit, terms


def _lemma_case(A: float, B: float, C: float, D: float) -> tuple[int, float, complex]:
    """(case, value, x): the maximum over |x| <= 1 of
    |A + B x + C x^2| + D (1 - |x|^2) for real A, B, C and D >= 0, with a
    maximiser x, Im x >= 0.

    The seven cases of the lemma of Choi, Kim and Sugawa (J. Math. Soc.
    Japan 59 (2007)), in their order, written for D Y(A/D, B/D, C/D) with no
    division by D, so D = 0 needs no special case.
    """
    aa, ab, ac = abs(A), abs(B), abs(C)
    if A * C >= 0:
        sign = math.copysign(1.0, A if A else C)  # the sign A and C share
        if ab >= 2.0 * (D - ac):
            return 1, aa + ab + ac, complex(sign * math.copysign(1.0, B))
        return 2, D + aa + B * B / (4.0 * (D - ac)), complex(sign * B / (2.0 * (D - ac)))
    # A C < 0 from here, so C != 0
    critical = -4.0 * A * C * (D * D - C * C)
    if B * B * C * C >= critical and ab < 2.0 * (D - ac):
        return 3, D - aa + B * B / (4.0 * (D - ac)), complex(math.copysign(1.0, C) * B / (2.0 * (D - ac)))
    if B * B * C * C < critical and ab < 2.0 * (D + ac):
        return 4, D + aa + B * B / (4.0 * (D + ac)), complex(math.copysign(1.0, A) * B / (2.0 * (D + ac)))
    if ac * (ab + 4.0 * aa) <= abs(A * B):
        return 5, aa + ab - ac, complex(math.copysign(1.0, A) * math.copysign(1.0, B))
    if abs(A * B) <= ac * (ab - 4.0 * aa):
        return 6, -aa + ab + ac, complex(math.copysign(1.0, C) * math.copysign(1.0, B))
    # on the unit circle, at the cos(theta) where |A + B x + C x^2|^2 peaks
    u = min(1.0, max(-1.0, -B * (A + C) / (4.0 * A * C)))
    return 7, (ac + aa) * math.sqrt(1.0 - B * B / (4.0 * A * C)), complex(u, math.sqrt(1.0 - u * u))


def empirical_sup(spec: ClassSpec, grid: tuple[int, int, int] = DEFAULT_GRID) -> VerificationReport:
    """Maximum of |a2 a4 - a3^2| over a grid in c, exactly in x and z, with
    its margin against the reported bound.

    ``grid`` is (n_c, n_r, n_theta): points along c in [0, 2], then rings of
    the x disk and angles on each ring for the ring check at the reported c;
    4 n_c and n_r * n_theta each at most ``MAX_SLICE_POINTS``, since those
    are the arrays it builds.  At each c the maximum over both
    disks is ``_lemma_case`` of the A, B, C and D of ``_quadratic_in_x``
    (module docstring), and ``argmax`` is the best c with its maximiser x,
    Im x >= 0, and the maximising z.

    A value below 1e-12 of its c's ``terms`` from ``_quadratic_in_x`` is
    rounding noise and refused with a ValueError before any guard reads it.
    Then one guard pass at the reported c, ``_check_at_c``, raises one
    in either direction: if a ring point beats that value by more than 1e-12
    of it (the lemma understates), and then if the value re-evaluated at
    ``argmax`` misses it by more than 1e-12 of |a2 a4| + |a3|^2 there (the
    lemma or affine step overstates).
    """
    import numpy as np
    n_c, n_r, n_t = _grid_sizes(grid, 3)
    if max(4 * n_c, n_r * n_t) > MAX_SLICE_POINTS:
        raise ValueError(f"grid too large: 4 n_c and n_r * n_theta must each be at most {MAX_SLICE_POINTS}")
    bound = second_hankel_bound(spec).bound
    c_values = np.linspace(0.0, 2.0, n_c)
    phase, abc, hz_unit, terms = _quadratic_in_x(spec, c_values)
    table = np.vstack((abc, np.abs(hz_unit)))  # rows A, B, C, D
    # a power of two per c brings its table to order 1 exactly, so the
    # lemma's fourth powers neither overflow nor underflow
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(table), axis=0))[1])

    best_value, best_ic, best_x = -1.0, 0, 0j
    for ic, (A, B, C, D, m) in enumerate(zip(*(table / scale).tolist(), scale.tolist())):
        _, value, x = _lemma_case(A, B, C, D)
        if value * m > best_value:
            best_value, best_ic, best_x = value * m, ic, x
    c = float(c_values[best_ic])
    if best_value < 1e-12 * terms[best_ic]:
        raise ValueError(
            f"the functional of {spec.describe()} at c={c!r} is lost to rounding at this target's magnitude: "
            f"its maximum {best_value!r} is below 1e-12 of its terms {float(terms[best_ic])!r}"
        )
    A, B, C = abc[:, best_ic]
    h0 = complex(phase[best_ic]) * (A + (B + C * best_x) * best_x)
    hz = complex(hz_unit[best_ic]) * _disk_weight(best_x)
    argmax = CaratheodoryPoint(c=c, x=best_x, z=_maximising_z(h0, hz))
    _check_at_c(spec, argmax, abs(complex(hz_unit[best_ic])), (n_r, n_t), best_value)
    violations = check_mu_monotone(spec)
    return VerificationReport(
        empirical_sup=best_value,
        bound=bound,
        argmax=argmax,
        margin=bound - best_value,
        grid_sizes=(n_c, n_r, n_t),
        monotonicity_violations=violations,
    )


def _check_at_c(spec: ClassSpec, point: CaratheodoryPoint, d: float, rings: tuple[int, int], value: float) -> None:
    """Raise a ValueError if the lemma's ``value`` at ``point.c`` is off in
    either direction, both read through ``expand_arrays``: |h0| + d (1 - |x|^2),
    with d = |hz_unit| at this c, at z = 0 on x = 0 and the full circle of
    rings 1..n_r-1, n_theta angles each, ``_BLOCK`` points at a time, beats
    it by more than 1e-12 of it or of |a2 a4| + |a3|^2 at the best ring
    point, whichever is larger (the lemma understates), or |a2 a4 - a3^2|
    at ``point`` misses it by more than 1e-12 of its terms' size (a4 is not
    affine in c3, or the lemma overstates)."""
    import numpy as np
    c, (n_r, n_t) = point.c, rings
    angles = np.exp(2j * np.pi * np.arange(n_t) / n_t)
    points = np.concatenate(([0j], (np.linspace(0.0, 1.0, n_r)[1:, None] * angles[None, :]).ravel()))
    best, best_x, terms = -1.0, 0j, 0.0
    for x in np.split(points, range(_BLOCK, len(points), _BLOCK)):
        a2, a3, a4 = coefficient_arrays(spec, *expand_arrays(c, x, 0.0))
        values = np.abs(a2 * a4 - a3 * a3) + d * _disk_weight(x)
        ix = int(np.argmax(values))
        if values[ix] > best:  # strict, so the first on a tie wins, as one argmax
            best, best_x = float(values[ix]), complex(x[ix])
            if best > value * (1.0 + 1e-12):  # only then are the terms read
                b2, b3, b4 = (complex(np.broadcast_to(a, x.shape)[ix]) for a in (a2, a3, a4))
                terms = abs(b2 * b4) + abs(b3) ** 2
    # rounding moves a reading by up to 1e-12 of its terms, which may dwarf the value
    if best - value > 1e-12 * max(value, terms):
        raise ValueError(
            f"ring value {best!r} of {spec.describe()} at c={c!r}, x={best_x!r} "
            f"beats the lemma's {value!r}: the lemma understates"
        )
    a2, a3, a4 = coefficient_arrays(spec, *expand_arrays(c, point.x, point.z))
    direct = abs(a2 * a4 - a3 * a3)
    if not abs(direct - value) <= 1e-12 * (abs(a2 * a4) + abs(a3) ** 2):
        raise ValueError(
            f"grid value {value!r} of {spec.describe()} at c={c!r}, x={point.x!r}, z={point.z!r} "
            f"is {float(direct)!r} when evaluated directly: a4 is not affine in c3, or the lemma overstates"
        )


def _grid_sizes(grid, axes: int) -> tuple[int, ...]:
    """``grid`` as ``axes`` ints of at least ``_MIN_GRID`` each, else a ValueError; a bare number is one axis."""
    try:
        values = tuple(grid)
    except TypeError:
        values = (grid,)
    if len(values) != axes:
        raise ValueError(f"grid must have {axes} axes, got {grid!r}")
    try:
        sizes = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"grid axes must be integers, got {grid!r}") from None
    if min(sizes) < _MIN_GRID:
        raise ValueError(f"grid too small: need at least {_MIN_GRID} points per axis")
    return sizes


def _maximising_z(h0: complex, hz: complex) -> complex:
    """The z of the unit circle where |h0 + hz z| = |h0| + |hz|; 1 when
    either part is 0 and every z does as well."""
    if h0 == 0 or hz == 0:
        return 1 + 0j
    return (h0 / abs(h0)) / (hz / abs(hz))


def check_mu_monotone(spec: ClassSpec, grid: tuple[int, int] = DEFAULT_MU_GRID) -> int:
    """Count strict decreases of ``bounds.majorant_surface`` along mu at
    fixed c; expected 0.

    At c = 2 the surface is constant in mu (every 4 - c^2 factor vanishes),
    which is not a violation; the comparison is non-strict with a tiny slack.
    ``grid`` is (n_c, n_mu), each at least ``_MIN_GRID`` and n_c * n_mu at
    most ``MAX_SLICE_POINTS``, refused with a ``ValueError`` otherwise.
    """
    import numpy as np
    n_c, n_mu = _grid_sizes(grid, 2)
    if n_c * n_mu > MAX_SLICE_POINTS:
        raise ValueError(f"grid too large: n_c * n_mu must be at most {MAX_SLICE_POINTS}")
    c = np.linspace(0.0, 2.0, n_c)[:, None]
    mu = np.linspace(0.0, 1.0, n_mu)[None, :]
    surface = majorant_surface(spec, c, mu)
    scale = max(1.0, float(np.max(np.abs(surface))))
    drops = np.diff(surface, axis=1) < -1e-12 * scale
    return int(np.count_nonzero(drops))


def _lattice(offsets, steps, index: int, size: int):
    """2u of candidates index..index+size-1 of an R_d lattice, one row per
    coordinate: u_j = (((s_j + n A_j) mod 2^64) >> 11) 2^-53, with s_j from
    ``offsets`` and A_j from ``steps``, so 2u lies in [0, 2)."""
    import numpy as np
    n = np.arange(index, index + size, dtype=np.uint64)
    return ((steps[:, None] * n + offsets[:, None]) >> 11) * 2.0**-52


def _lattice_disk(offsets, steps, index: int, count: int):
    """(lead, points, index): the first ``count`` candidates of ``_lattice``
    from ``index`` on whose last two coordinates, mapped to [-1, 1]^2, lie
    in the closed unit disk, as their other rows and their disk points, and
    the candidate after the last of them.  A round draws at most
    ``_BLOCK // 2`` candidates, so no temporary passes 48 KB and freeing
    them leaves glibc no heap top past its 128 KB trim threshold to return
    and fault in again (rounds of ``_BLOCK`` faulted about 90 times per
    100,000-sample check)."""
    import numpy as np
    lead, points = np.empty((len(steps) - 2, count)), np.empty(count, dtype=complex)
    kept = 0
    while kept < count:
        need = count - kept
        size = min(_BLOCK // 2, need + need // 3 + 16)  # the disk is pi/4 of the square
        drawn = _lattice(offsets, steps, index, size)
        square = np.empty(size, dtype=complex)
        np.subtract(drawn[-2], 1.0, out=square.real)
        np.subtract(drawn[-1], 1.0, out=square.imag)
        inside = np.flatnonzero(abs(square) <= 1.0)[:need]
        lead[:, kept:kept + len(inside)] = drawn[:-2, inside]
        points[kept:kept + len(inside)] = square[inside]
        kept += len(inside)
        index += size if kept < count else int(inside[-1]) + 1
    return lead, points, index


def _splitmix64(seed: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64 (Steele, Lea and Flood,
    OOPSLA 2014) seeded with ``seed``."""
    out = []
    for _ in range(count):
        seed = (seed + 0x9E3779B97F4A7C15) & _MASK64
        v = ((seed ^ (seed >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(v ^ (v >> 31))
    return out


def check_caratheodory_bounds(samples: int, seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """Max |c2| and |c3| over ``samples`` seeded points and ``_RIDE_ALONG``; both must stay <= 2.

    Each block of n <= ``_BLOCK`` points is ceil(n / nz) (c, x) pairs
    crossed with nz = min(``_Z_PER_PAIR``, isqrt(n)) z points, and the first
    n of the row-major product count.  The pairs are the points of the R_3
    lattice (``_PAIR_STEPS``) with x in the disk, in candidate order, as
    (c, x) = (2u_1, (2u_2 - 1) + i (2u_3 - 1)), and the z points those of
    the R_2 lattice (``_Z_STEPS``) in the same way; the five offsets s_j are
    the first outputs of SplitMix64 seeded with ``seed``.  No candidate
    depends on generator state, so the pairs and z of ``_Z_PER_PAIR`` blocks,
    at most ``_BLOCK`` pairs, are drawn at once, and a running candidate
    index carries each lattice on to the next draw.  ``samples`` is at most
    ``MAX_SAMPLES`` and ``seed`` in [0, 2^64); both must be integers, else a
    ValueError, as ``_grid_sizes`` does.
    """
    import numpy as np
    try:
        samples, seed = operator.index(samples), operator.index(seed)
    except TypeError:
        raise ValueError(f"samples and seed must be integers, got {samples!r} and {seed!r}") from None
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    _, c2, c3 = expand_arrays(*map(np.array, _RIDE_ALONG))
    max_c2, max_c3 = float(abs(c2).max()), float(abs(c3).max())
    offsets = np.array(_splitmix64(seed, 5), dtype=np.uint64)
    pair_steps, z_steps = np.array(_PAIR_STEPS, dtype=np.uint64), np.array(_Z_STEPS, dtype=np.uint64)
    pair_index = z_index = 0
    for chunk in range(0, samples, _BLOCK * _Z_PER_PAIR):
        blocks = []
        for start in range(chunk, min(samples, chunk + _BLOCK * _Z_PER_PAIR), _BLOCK):
            n = min(_BLOCK, samples - start)
            nz = min(_Z_PER_PAIR, math.isqrt(n))
            blocks.append((n, -(-n // nz), nz))
        (c,), x, pair_index = _lattice_disk(offsets[:3], pair_steps, pair_index, sum(k for _, k, _ in blocks))
        _, z, z_index = _lattice_disk(offsets[3:], z_steps, z_index, sum(nz for _, _, nz in blocks))
        p = q = 0
        for n, k, nz in blocks:
            _, c2, c3 = expand_arrays(c[p:p + k, None], x[p:p + k, None], z[None, q:q + nz])
            p, q = p + k, q + nz
            # every pair has a counted point, so c2, one value per pair, needs no cut
            max_c2 = max(max_c2, float(abs(c2).max()))
            max_c3 = max(max_c3, float(abs(c3.ravel()[:n]).max()))
    return max_c2, max_c3
