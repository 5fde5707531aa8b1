"""Independent brute-force verification of the reported bounds.

The coefficients (c1, c2, c3) of every positive-real-part function are
reachable as

    c1 = c in [0, 2]      (after rotation)
    2 c2 = c^2 + x (4 - c^2)
    4 c3 = c^3 + 2 (4-c^2) c x - c (4-c^2) x^2 + 2 (4-c^2) (1-|x|^2) z

with |x| <= 1 and |z| <= 1, so maximising |a2 a4 - a3^2| over a grid in
(c, x), and exactly in z, gives a certified lower estimate of the true
supremum, to be held against the reported bound.  At fixed (c, x) the
functional is h0 + hz z, affine in z, so its maximum over the z disk is
|h0| + |hz|, taken where hz z has the phase of h0; x is sampled on
concentric rings including |x| = 1, where the extremal configurations live.
The grid works from the class coefficients alone, never from (T, d1..d4),
so it checks the bound independently.

Only the upper half of the x disk is evaluated.  The premise is that the
target's B1, B2, B3 are real, as ``PhiCoefficients`` enforces (the Ma-Minda
phi is symmetric about the real axis), and that every class parameter
other than rgt's tau is real.  Then conjugating x and z conjugates c2 and
c3 (c is real), hence a2, a3 and a4 once rgt's common factor tau is taken
out, so |a2 a4 - a3^2| (which carries |tau|^2 for rgt) at (c, conj x,
conj z) equals its value at (c, x, z) for every class.  Each c is evaluated
at the single point x = 0 and at the angles k = 0..n_theta//2 of rings
1..n_r-1, that is 1 + (n_r - 1)(n_theta//2 + 1) points (1,024 on the
default grid against 2,048 of the full circle); every other grid point is
the mirror of one of these.

``majorant_surface`` is the other side: the triangle majorant in
(c, mu = |x|) that the certified value is maximised through, and
``check_mu_monotone`` checks that it peaks at mu = 1.

``check_caratheodory_bounds`` checks the parameterisation itself on seeded
random points: |c2| and |c3| stay at most 2.  Its points are drawn block by
block from one generator, ``_BLOCK`` at a time, so its memory is O(block)
whatever the sample count, and its disk points come by rejection from the
square.  Work is capped: at most ``MAX_GRID_POINTS`` grid points,
``MAX_SLICE_POINTS`` of them per c, and ``MAX_SAMPLES`` samples, refused
with a ``ValueError`` before anything is built.  numpy is imported by the
functions that use it, not by this module, so ``import hankelbound`` and the
``bound``, ``series`` and ``sweep`` commands run without it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bounds import majorant_weights, profile, second_hankel_bound
from .classes import ClassSpec, coefficient_arrays

DEFAULT_GRID = (64, 32, 64)
DEFAULT_MU_GRID = (64, 64)
DEFAULT_SEED = 1729
_MIN_GRID = 8
MAX_GRID_POINTS = 2**24
# memory follows the x points of one c, about 280 B each; a c evaluates about
# half of its n_r * n_theta points (the mirror half), so 2^16 is about 9 MB
MAX_SLICE_POINTS = 2**16
MAX_SAMPLES = 10_000_000
# a block's 5,477 candidate disk points are 87.6 KB, under glibc's 128 KB mmap threshold
_BLOCK = 4096
# boundary configurations known to reach |c2| = |c3| = 2, as (c, x, z)
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
        if abs(self.x) > 1.0 + 1e-12:
            raise ValueError(f"|x| must be at most 1, got {abs(self.x)!r}")
        if abs(self.z) > 1.0 + 1e-12:
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


def expand_arrays(c, x, z):
    """(c1, c2, c3) from grid arrays of c, x, z; broadcasts like numpy.

    The z weight is written (1 - |x|)(1 + |x|) so it vanishes exactly on the
    unit circle whenever |x| is exactly representable.
    """
    import numpy as np
    s = 4.0 - c * c
    ax = np.abs(x)
    c1 = c + 0j
    c2 = 0.5 * (c * c + x * s)
    c3 = 0.25 * (c * c * c + 2.0 * s * c * x - c * s * x * x + 2.0 * s * (1.0 - ax) * (1.0 + ax) * z)
    return c1, c2, c3


def empirical_sup(spec: ClassSpec, grid: tuple[int, int, int] = DEFAULT_GRID) -> VerificationReport:
    """Maximum of |a2 a4 - a3^2| over the parameter grid, with its margin
    against the reported bound.

    ``grid`` is (n_c, n_r, n_theta): points along c in [0, 2], rings of the
    x disk, and angles on each ring, at most ``MAX_GRID_POINTS`` in all and
    ``MAX_SLICE_POINTS`` (n_r * n_theta) per c.  Since |a2 a4 - a3^2| is
    symmetric under (x, z) -> (conj x, conj z) for real B1, B2, B3 (module
    docstring), each c evaluates only x = 0 and the angles k = 0..n_theta//2
    of rings 1..n_r-1: 1 + (n_r - 1)(n_theta//2 + 1) points, each equal to
    a point of the full grid, and ``argmax.x`` has a non-negative imaginary
    part.  z is not sampled: at each (c, x) the maximum over |z| <= 1 is
    taken exactly, and ``argmax.z`` is its maximiser.
    """
    import numpy as np
    n_c, n_r, n_t = _grid_sizes(grid, "n_c * n_r * n_theta")
    if n_r * n_t > MAX_SLICE_POINTS:
        raise ValueError(f"grid too large: n_r * n_theta must be at most {MAX_SLICE_POINTS}")
    bound = second_hankel_bound(spec).bound
    c_values = np.linspace(0.0, 2.0, n_c)
    radii = np.linspace(0.0, 1.0, n_r)
    # the full circle's angles, cut to the upper half: k > n_t // 2 mirrors n_t - k
    angles = np.exp(2j * np.pi * np.arange(n_t) / n_t)[: n_t // 2 + 1]
    x_points = np.concatenate(([0j], (radii[1:, None] * angles[None, :]).ravel()))
    z_ends = np.array([[0.0], [1.0]])

    best_value = -1.0
    best = (0, 0, 0j, 0j)
    # one c at a time keeps the arrays cache-sized; all c at once is slower
    for ic, c in enumerate(c_values):
        # a2 a4 - a3^2 = h0 + hz * z, read off at z = 0 and z = 1
        a2, a3, a4 = coefficient_arrays(spec, *expand_arrays(float(c), x_points, z_ends))
        h0, h1 = a2 * a4 - a3 * a3
        hz = h1 - h0
        values = np.abs(h0) + np.abs(hz)
        ix = int(np.argmax(values))
        if values[ix] > best_value:
            best_value = float(values[ix])
            best = (ic, ix, complex(h0[ix]), complex(hz[ix]))
    ic, ix, h0_best, hz_best = best
    argmax = CaratheodoryPoint(
        c=float(c_values[ic]), x=complex(x_points[ix]), z=_maximising_z(h0_best, hz_best)
    )
    violations = check_mu_monotone(spec)
    return VerificationReport(
        empirical_sup=best_value,
        bound=bound,
        argmax=argmax,
        margin=bound - best_value,
        grid_sizes=(n_c, n_r, n_t),
        monotonicity_violations=violations,
    )


def _grid_sizes(grid, product: str) -> tuple[int, ...]:
    """``grid`` as ints, refused unless every axis has at least ``_MIN_GRID``
    points and their ``product`` is at most ``MAX_GRID_POINTS``."""
    sizes = tuple(int(v) for v in grid)
    if min(sizes) < _MIN_GRID:
        raise ValueError(f"grid too small: need at least {_MIN_GRID} points per axis")
    if math.prod(sizes) > MAX_GRID_POINTS:
        raise ValueError(f"grid too large: {product} must be at most {MAX_GRID_POINTS}")
    return sizes


def _maximising_z(h0: complex, hz: complex) -> complex:
    """The z of the unit circle where |h0 + hz z| = |h0| + |hz|; 1 when
    either part is 0 and every z does as well."""
    if h0 == 0 or hz == 0:
        return 1 + 0j
    return (h0 / abs(h0)) / (hz / abs(hz))


def majorant_surface(spec: ClassSpec, c, mu):
    """The majorant F(c, mu) of |a2 a4 - a3^2| that the bound is maximised
    through: T times the triangle majorant of ``bounds.majorant_weights``,
    built from the (T, d1..d4) of ``bounds.profile``.

    For every x and z with |x| = mu and |z| <= 1 it dominates
    |a2 a4 - a3^2| at c1 = c, it is non-decreasing in mu, and its mu = 1
    section is the certified quadratic.  Broadcasts over numpy arrays.
    """
    import numpy as np
    prof = profile(spec)
    quartic, linear = majorant_weights(prof)
    c = np.asarray(c, dtype=float)
    mu = np.asarray(mu, dtype=float)
    s = 4.0 - c * c
    c2 = c * c
    return prof.T * (
        quartic * c2 * c2
        + 0.5 * linear * c2 * s * mu
        + 0.25 * s * mu * mu * np.abs(prof.d3 * s - prof.d1 * c2)
        + 0.5 * prof.d1 * c * s * (1.0 - mu * mu)
    )


def check_mu_monotone(spec: ClassSpec, grid: tuple[int, int] = DEFAULT_MU_GRID) -> int:
    """Count strict decreases of the majorant along mu at fixed c; expected 0.

    At c = 2 the surface is constant in mu (every 4 - c^2 factor vanishes),
    which is not a violation; the comparison is non-strict with a tiny slack.
    ``grid`` is (n_c, n_mu), each at least ``_MIN_GRID`` and at most
    ``MAX_GRID_POINTS`` in all, refused with a ``ValueError`` otherwise.
    """
    import numpy as np
    n_c, n_mu = _grid_sizes(grid, "n_c * n_mu")
    c = np.linspace(0.0, 2.0, n_c)[:, None]
    mu = np.linspace(0.0, 1.0, n_mu)[None, :]
    surface = majorant_surface(spec, c, mu)
    scale = max(1.0, float(np.max(np.abs(surface))))
    drops = np.diff(surface, axis=1) < -1e-12 * scale
    return int(np.count_nonzero(drops))


def _disk_samples(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` points uniform on the closed unit disk, by rejection from [-1, 1]^2."""
    import numpy as np
    points = np.empty(0, dtype=complex)
    while (need := count - len(points)) > 0:
        # the disk is pi/4 of the square, so 4/3 of need almost always suffices
        square = (2.0 * rng.random(2 * (need + need // 3 + 16)) - 1.0).view(complex)
        points = np.concatenate((points, square[np.abs(square) <= 1.0][:need]))
    return points


def check_caratheodory_bounds(samples: int, seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """Max |c2| and |c3| over random points and ``_RIDE_ALONG``; both must stay <= 2.

    The points are drawn from one ``default_rng(seed)``, ``_BLOCK`` at a time
    (c, then the x and z disks by ``_disk_samples``), so memory stays O(block)
    and every temporary stays below the allocator's mmap threshold.
    ``samples`` is at most ``MAX_SAMPLES``.
    """
    import numpy as np
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}")
    rng = np.random.default_rng(seed)
    counts = (min(_BLOCK, samples - start) for start in range(0, samples, _BLOCK))
    blocks = ((rng.uniform(0.0, 2.0, n), _disk_samples(rng, n), _disk_samples(rng, n)) for n in counts)
    max_c2 = max_c3 = 0.0
    for c, x, z in itertools.chain(blocks, [map(np.array, _RIDE_ALONG)]):
        _, c2, c3 = expand_arrays(c, x, z)
        max_c2 = max(max_c2, float(np.max(np.abs(c2))))
        max_c3 = max(max_c3, float(np.max(np.abs(c3))))
    return max_c2, max_c3
