import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

import hankelbound as hb
from hankelbound.classes import coefficient_arrays
from hankelbound.verify import (
    _RIDE_ALONG,
    DEFAULT_GRID,
    MAX_SAMPLES,
    MAX_SLICE_POINTS,
    CaratheodoryPoint,
    _check_at_c,
    _lattice,
    _lemma_case,
    _maximising_z,
    _quadratic_in_x,
    expand_arrays,
)

from conftest import (
    class_catalogue,
    preset_catalogue,
    random_phi,
    random_spec,
    verify_against_closed_form,
)


class TestCaratheodoryExpand:
    def test_boundary_c_two(self):
        c1, c2, c3 = expand_arrays(2.0, 0.3 + 0.1j, -0.5j)
        assert (c1, c2, c3) == (2, 2, 2)

    def test_c_zero_x_one(self):
        c1, c2, c3 = expand_arrays(0.0, 1.0 + 0j, 0.7j)
        assert (c1, c2, c3) == (0, 2, 0)

    def test_interior_point(self):
        c1, c2, c3 = expand_arrays(1.0, 0.5 + 0j, 1.0 + 0j)
        assert c1 == 1
        assert c2 == pytest.approx(1.25)
        assert c3 == pytest.approx(1.9375)

    @pytest.mark.parametrize("x", [1 + 0j, -1 + 0j, 1j, -1j])
    def test_c3_ignores_z_on_x_boundary(self, x, rng):
        # exact when |x| is exactly 1 in floating point
        for _ in range(10):
            c = rng.uniform(0, 2)
            z1 = 0.8 * np.exp(2j * np.pi * rng.uniform())
            _, _, c3a = expand_arrays(c, x, z1)
            _, _, c3b = expand_arrays(c, x, -z1)
            assert c3a == c3b

    def test_c3_nearly_ignores_z_on_sampled_circle(self, rng):
        for _ in range(20):
            c = rng.uniform(0, 2)
            x = np.exp(2j * np.pi * rng.uniform())
            z1 = 0.8 * np.exp(2j * np.pi * rng.uniform())
            _, _, c3a = expand_arrays(c, x, z1)
            _, _, c3b = expand_arrays(c, x, -z1)
            assert abs(c3a - c3b) < 1e-14

    def test_plain_numbers_match_one_element_arrays(self, rng):
        # plain numbers give plain numbers, as an array of one point does
        for _ in range(100):
            c = float(rng.uniform(0, 2))
            x, z = (complex(r * np.exp(2j * np.pi * rng.uniform())) for r in np.sqrt(rng.uniform(0, 1, 2)))
            plain = expand_arrays(c, x, z)
            arrays = expand_arrays(np.array([c]), np.array([x]), np.array([z]))
            assert all(type(v) is complex for v in plain)
            np.testing.assert_allclose(plain, [v[0] for v in arrays], rtol=1e-15, atol=0)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            hb.CaratheodoryPoint(2.5, 0, 0)
        with pytest.raises(ValueError):
            hb.CaratheodoryPoint(1.0, 1.5, 0)
        with pytest.raises(ValueError):
            hb.CaratheodoryPoint(1.0, 0, 1 + 1j)
        with pytest.raises(ValueError):
            hb.CaratheodoryPoint(1.0, complex("nan"), 0)
        with pytest.raises(ValueError):
            hb.CaratheodoryPoint(1.0, 0, complex("nan"))

    def test_mu_defaults_to_x_modulus(self):
        point = hb.CaratheodoryPoint(1.0, 0.6j, 0)
        assert point.mu == pytest.approx(0.6)


def _roberts_steps(d):
    """floor(g^-j 2^64) for j = 1..d, with g > 1 the root of g^(d+1) = g + 1,
    by Newton's method at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        g = Decimal(2)
        for _ in range(100):
            g -= (g ** (d + 1) - g - 1) / ((d + 1) * g**d - 1)
        return [int(g**-j * 2**64) for j in range(1, d + 1)]


def _splitmix64_outputs(seed, count):
    """SplitMix64 in Python integers: add the golden gamma, then mix."""
    mask, out = 2**64 - 1, []
    for i in range(1, count + 1):
        v = (seed + i * 0x9E3779B97F4A7C15) & mask
        v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & mask
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & mask
        out.append(v ^ (v >> 31))
    return out


def _disk_candidates(offsets, steps, start=0):
    """(n, twice_u, point): the candidates of an R_d lattice from ``start`` on
    whose last two coordinates map into the closed disk, in Python integers
    mod 2^64, with no numpy."""
    n = start
    while True:
        twice_u = [2.0 * ((((s + n * a) % 2**64) >> 11) * 2.0**-53) for s, a in zip(offsets, steps)]
        point = complex(twice_u[-2] - 1.0, twice_u[-1] - 1.0)
        if abs(point) <= 1.0:
            yield n, twice_u, point
        n += 1


def _oracle_blocks(samples, seed, pair_start=0):
    """(c, x, z) of each block of ``check_caratheodory_bounds(samples, seed)``:
    (c, x) pairs from R_3 and z from R_2, offset by SplitMix64(seed)."""
    offsets = _splitmix64_outputs(seed, 5)
    pairs = _disk_candidates(offsets[:3], _roberts_steps(3), pair_start)
    zs = _disk_candidates(offsets[3:], _roberts_steps(2))
    blocks = []
    for start in range(0, samples, 4096):
        n = min(4096, samples - start)
        nz = min(16, math.isqrt(n))
        drawn = [next(pairs) for _ in range(-(-n // nz))]
        c = np.array([[twice_u[0]] for _, twice_u, _ in drawn])
        x = np.array([[point] for _, _, point in drawn])
        z = np.array([[next(zs)[2] for _ in range(nz)]])
        blocks.append((c, x, z))
    return blocks


def _seen_blocks(monkeypatch, samples, seed):
    """The (c, x, z) of each expand_arrays call of the check, ride-along first."""
    seen = []

    def spy(c, x, z):
        seen.append((c, x, z))
        return expand_arrays(c, x, z)

    monkeypatch.setattr("hankelbound.verify.expand_arrays", spy)
    hb.check_caratheodory_bounds(samples, seed)
    return seen


def _assert_same_arrays(block, expected):
    for crossed, drawn in zip(block, expected, strict=True):
        assert crossed.shape == drawn.shape and crossed.dtype == drawn.dtype
        assert np.array_equal(crossed, drawn)


class TestCaratheodoryBounds:
    def test_large_sample(self):
        max_c2, max_c3 = hb.check_caratheodory_bounds(100_000, seed=1729)
        assert max_c2 <= 2 + 1e-12
        assert max_c3 <= 2 + 1e-12

    def test_boundary_points_reach_two(self):
        max_c2, max_c3 = hb.check_caratheodory_bounds(10, seed=0)
        assert max_c2 == pytest.approx(2.0, abs=1e-12)
        assert max_c3 == pytest.approx(2.0, abs=1e-12)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            hb.check_caratheodory_bounds(0)

    def test_offsets_are_splitmix64(self):
        # the published first outputs of SplitMix64 at seed 0, and the
        # Roberts steps in the code against the ones derived here
        assert hb.verify._splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert hb.verify._splitmix64(1729, 5) == _splitmix64_outputs(1729, 5)
        assert list(hb.verify._PAIR_STEPS) == _roberts_steps(3)
        assert list(hb.verify._Z_STEPS) == _roberts_steps(2)

    def test_sample_count_capped(self):
        with pytest.raises(ValueError, match="at most"):
            hb.check_caratheodory_bounds(MAX_SAMPLES + 1)

    @pytest.mark.parametrize(
        "samples, seed",
        [(10.0, 0), (4097.0, 0), ("10", 0), (math.nan, 0), (10, 1.5)],
        ids=["float", "float_past_a_block", "str", "nan", "float_seed"],
    )
    def test_non_integer_is_refused(self, samples, seed):
        with pytest.raises(ValueError, match="samples and seed must be integers"):
            hb.check_caratheodory_bounds(samples, seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**100], ids=["negative", "two_to_64", "two_to_100"])
    def test_seed_out_of_range_is_refused(self, seed):
        with pytest.raises(ValueError, match=re.escape("seed must lie in [0, 2^64)")):
            hb.check_caratheodory_bounds(10, seed)

    def test_largest_seed_is_accepted(self):
        assert hb.check_caratheodory_bounds(10, 2**64 - 1) == (2.0, 2.0)

    @pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 100_000])
    @pytest.mark.parametrize("seed", range(10))
    def test_result_is_pinned(self, samples, seed):
        # the ride-along points reach 2 exactly, and no drawn point passes it
        assert hb.check_caratheodory_bounds(samples, seed) == (2.0, 2.0)

    @pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 100_000])
    @pytest.mark.parametrize("seed", range(10))
    def test_streamed_draws_are_the_whole_array_draws(self, monkeypatch, samples, seed):
        # the blocks are (c, x) pairs crossed with shared z points; the
        # oracle, in Python integers mod 2^64: the ride-along points, then
        # per block of n <= 4,096 points the next k = ceil(n / nz) pairs of
        # R_3 with x in the disk, as a column each, and the next
        # nz = min(16, isqrt(n)) points of R_2 in the disk, as a row; which
        # blocks share a draw does not show
        seen = _seen_blocks(monkeypatch, samples, seed)
        ride_along, blocks = seen[0], seen[1:]
        assert np.array_equal(ride_along[0], [2.0, 0.0])
        oracle = _oracle_blocks(samples, seed)
        assert len(blocks) == len(oracle)
        for block, expected in zip(blocks, oracle):
            _assert_same_arrays(block, expected)

    @pytest.mark.parametrize("samples", [1, 10, 15, 16, 17, 255, 256, 4095, 4096, 4097])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_exactly_samples_points_count(self, monkeypatch, samples, seed):
        # the true expansion keeps every drawn |c2| and |c3| at most the
        # ride-along's 2, so it cannot show which points count; this stand-in
        # grows with the pair and with the row-major point index (the draws
        # add less than 1/2, and abs of a real value rounds nothing)
        seen = []

        def stand_in(c, x, z):
            seen.append((c, z))
            shape = np.broadcast(c, z).shape
            pair, point = np.arange(np.size(c)).reshape(np.shape(c)), np.arange(math.prod(shape)).reshape(shape)
            return c + 0j, pair + c / 8.0 + 0j, point + (c + z.real) / 8.0 + 0j

        monkeypatch.setattr("hankelbound.verify.expand_arrays", stand_in)
        result = hb.check_caratheodory_bounds(samples, seed)
        (ride_c, ride_z), blocks = seen[0], seen[1:]
        max_c2 = max(p + c / 8.0 for p, c in enumerate(ride_c))
        max_c3 = max(abs(p + (c + z.real) / 8.0) for p, (c, z) in enumerate(zip(ride_c, ride_z)))
        counted = 0
        for start, (c, z) in zip(range(0, samples, 4096), blocks):
            n = min(4096, samples - start)
            nz = z.shape[1]
            for i in range(n):
                pair, j = divmod(i, nz)
                max_c2 = max(max_c2, pair + c[pair, 0] / 8.0)
                max_c3 = max(max_c3, abs(i + (c[pair, 0] + z[0, j].real) / 8.0))
                counted += 1
        assert counted == samples
        assert result == (max_c2, max_c3)

    @pytest.mark.parametrize(
        "samples, floor, seed",
        # ids [seed] at the default 100,000 samples, [samples-seed] below it
        [
            pytest.param(samples, floor, seed, id=str(seed) if samples == 100_000 else f"{samples}-{seed}")
            for samples, floor in ((100, 2), (1000, 2), (100_000, 3))
            for seed in (0, 1729)
        ],
    )
    def test_draws_detect_a_faulty_expansion(self, monkeypatch, samples, floor, seed):
        # c3 without the (1 - |x|^2) factor on z: the ride-along points miss
        # it, so only the random draws can push |c3| past 2
        def faulty_expand(c, x, z):
            s = 4.0 - c * c
            c3 = 0.25 * (c * c * c + 2.0 * s * c * x - c * s * x * x + 2.0 * s * z)
            return c + 0j, 0.5 * (c * c + x * s), c3

        _, c2, c3 = faulty_expand(*(np.array(v) for v in _RIDE_ALONG))
        assert (np.max(np.abs(c2)), np.max(np.abs(c3))) == (2.0, 2.0)
        monkeypatch.setattr("hankelbound.verify.expand_arrays", faulty_expand)
        _, max_c3 = hb.check_caratheodory_bounds(samples, seed)
        assert max_c3 > floor

    def test_short_round_is_topped_up(self, monkeypatch):
        # a first round of zeros maps to -1 - 1i, outside the disk, so every
        # pair comes from the rounds after it, from candidate 2,048 on, and
        # the second draw of pairs goes on after the last pair of the first;
        # the z lattice is untouched
        rounds = []

        def first_round_outside(offsets, steps, index, size):
            rounds.append((len(steps), index, size))
            drawn = _lattice(offsets, steps, index, size)
            return np.zeros_like(drawn) if len(rounds) == 1 else drawn

        # at seed 2 pair candidate 2,048 and z candidate 0 are kept, so a
        # draw that starts a candidate late shows in the first block
        offsets = _splitmix64_outputs(2, 5)
        assert next(_disk_candidates(offsets[:3], _roberts_steps(3), 2048))[0] == 2048
        assert next(_disk_candidates(offsets[3:], _roberts_steps(2)))[0] == 0
        monkeypatch.setattr("hankelbound.verify._lattice", first_round_outside)
        samples = 17 * 4096  # 17 blocks: one draw of 16 blocks' pairs and z, then one of 1
        blocks = _seen_blocks(monkeypatch, samples, 2)[1:]
        assert rounds[:2] == [(3, 0, 2048), (3, 2048, 2048)]
        assert max(size for _, _, size in rounds) <= 2048
        oracle = _oracle_blocks(samples, 2, pair_start=2048)
        assert len(blocks) == len(oracle) == 17
        for block, expected in zip(blocks, oracle):
            _assert_same_arrays(block, expected)

    @pytest.mark.parametrize("seed", [0, 1729])
    def test_disk_points_are_uniform(self, monkeypatch, seed):
        # the check's own 100,000 pairs: E|x|^2 = 1/2, E x = 0 and a quarter
        # of x in each quadrant, and E c = 1; each limit is more than 5 sd out
        # for random points, and a missing 2u - 1 map would put every x in
        # the first quadrant; no pair comes twice, and the z, drawn from a
        # lattice of their own, are in the disk, distinct and none an x
        samples = 390 * 4096 + 2560  # 390 blocks of 256 pairs, then one of 160
        blocks = _seen_blocks(monkeypatch, samples, seed)[1:]
        c, x = (np.concatenate([block[i].ravel() for block in blocks]) for i in (0, 1))
        z = np.concatenate([block[2].ravel() for block in blocks])
        assert len(x) == 100_000 and len(z) == 391 * 16
        assert np.all(np.abs(x) <= 1.0) and np.all(np.abs(z) <= 1.0)
        assert abs(np.mean(np.abs(x) ** 2) - 0.5) <= 0.005
        assert abs(np.mean(x)) < 0.01
        for re_sign in (1, -1):
            for im_sign in (1, -1):
                share = np.mean((re_sign * x.real > 0) & (im_sign * x.imag > 0))
                assert abs(share - 0.25) <= 0.01
        assert np.all((0.0 <= c) & (c < 2.0)) and abs(np.mean(c) - 1.0) < 0.01
        assert len(np.unique(x)) == len(x) and len(np.unique(z)) == len(z)
        assert not np.isin(z, x).any()

    def test_memory_does_not_grow_with_samples(self):
        tracemalloc.start()
        try:
            max_c2, max_c3 = hb.check_caratheodory_bounds(1_000_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert max_c2 <= 2 + 1e-12 and max_c3 <= 2 + 1e-12


class TestEmpiricalSup:
    def test_halfplane_starlike_attains_koebe(self):
        report = hb.empirical_sup(hb.starlike(hb.preset("halfplane")))
        assert 0.995 <= report.empirical_sup <= 1.0 + 1e-12
        assert report.bound == pytest.approx(1.0)
        assert report.margin >= -1e-9
        assert report.monotonicity_violations == 0

    def test_lemniscate_starlike(self):
        report = hb.empirical_sup(hb.starlike(hb.preset("lemniscate")))
        assert 0.0615 <= report.empirical_sup <= 0.0625 + 1e-12
        assert report.bound == pytest.approx(0.0625)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError, match="grid too small"):
            hb.empirical_sup(hb.starlike(hb.preset("halfplane")), grid=(4, 32, 64))

    def test_grid_point_count_capped(self):
        # refused before the rings are built: 8 * 8,193 ring points exceed the cap
        with pytest.raises(ValueError, match="grid too large"):
            hb.empirical_sup(hb.starlike(hb.preset("halfplane")), grid=(8, 8, MAX_SLICE_POINTS // 8 + 1))

    @pytest.mark.parametrize(
        "grid, message",
        [((2**18, 8, 8), "too large"), ((MAX_SLICE_POINTS // 4 + 1, 8, 8), "too large"),
         ((64.7, 32.9, 64), "axes must be integers"), ((64, 32, np.float64(64)), "axes must be integers"),
         ((64, 32), "must have 3 axes"), ((64, 32, 64, 8), "must have 3 axes"), ((), "must have 3 axes"),
         (64, "must have 3 axes")],
    )
    def test_grid_refused_before_any_array(self, monkeypatch, grid, message):
        # an array built past the size check, or a grid run at truncated
        # axes, fails the test instead of refusing it
        def never(*args):
            raise AssertionError("array built for a refused grid")

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", never)
        monkeypatch.setattr("hankelbound.verify.majorant_surface", never)
        with pytest.raises(ValueError, match=f"grid {message}"):
            hb.empirical_sup(hb.starlike(hb.preset("halfplane")), grid=grid)

    def test_numpy_int_grid_accepted(self):
        spec = hb.starlike(hb.preset("lemniscate"))
        report = hb.empirical_sup(spec, grid=tuple(np.int64(n) for n in (16, 8, 16)))
        assert report.grid_sizes == (16, 8, 16)
        assert report == hb.empirical_sup(spec, grid=(16, 8, 16))

    def test_largest_rings_match_the_smallest(self):
        # n_r * n_theta at the cap moves neither the value nor its point
        spec = hb.starlike(hb.preset("lemniscate"))
        coarse, fine = (hb.empirical_sup(spec, grid=(4096, n, n)) for n in (8, 256))
        assert (fine.empirical_sup, fine.argmax) == (coarse.empirical_sup, coarse.argmax)

    def test_memory_at_the_cap(self):
        # the largest accepted grids trace a few MB, whatever their rings
        spec = hb.starlike(hb.preset("lemniscate"))
        for grid in ((MAX_SLICE_POINTS // 4, 8, 8), (MAX_SLICE_POINTS // 4, 256, 256)):
            tracemalloc.start()
            try:
                hb.empirical_sup(spec, grid=grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16e6, grid

    def test_trivial_origin_grid_gives_zero(self):
        # single admissible point c = 0, x = 0 makes f(z) = z
        spec = hb.starlike(hb.preset("halfplane"))
        c1, c2, c3 = expand_arrays(np.array([0.0]), np.array([0j]), np.array([1 + 0j]))
        a2, a3, a4 = coefficient_arrays(spec, c1, c2, c3)
        assert np.abs(a2 * a4 - a3**2).max() == 0

    def test_argmax_reproduces_reported_value(self, rng):
        # rgt with complex tau: h0 and hz have unrelated phases, so the
        # reported z is a genuine rotation, not +-1
        for _ in range(10):
            spec = random_spec(rng, "rgt")
            assert spec.tau.imag != 0
            report = hb.empirical_sup(spec, grid=(16, 8, 16))
            assert abs(report.argmax.z) == pytest.approx(1.0, abs=1e-12)
            c1, c2, c3 = expand_arrays(report.argmax.c, report.argmax.x, report.argmax.z)
            value = hb.hankel2(hb.coefficients_from_c(spec, c1, c2, c3))
            assert value == pytest.approx(report.empirical_sup, rel=1e-12)

    def test_first_derivative_class_sound_on_random_targets(self, rng):
        # the fully |.|-majorised pipeline verifies everywhere in the box
        for _ in range(15):
            report = hb.empirical_sup(random_spec(rng, "rgt"), grid=(32, 16, 32))
            assert report.margin >= -1e-9

    def test_known_negative_margin_is_detected(self, monkeypatch):
        # quartic-sign failure mode of the starlike closed form: the grid
        # supremum 16/3 at c = 2 exceeds the closed form (about 0.27) by
        # more than 5; the reported bound covers it through the certified value
        spec = hb.starlike(hb.custom(1, -5, 3))
        report = hb.empirical_sup(spec)
        assert report.empirical_sup == pytest.approx(16 / 3, rel=1e-10)
        assert report.margin >= -1e-9
        verify_against_closed_form(monkeypatch)
        report = hb.empirical_sup(spec)
        assert report.empirical_sup == pytest.approx(16 / 3, rel=1e-10)
        assert report.margin < -5


def _affine_parts(spec, c, x):
    """h0 and hz of a2 a4 - a3^2 = h0 + hz z at the points (c, x)."""
    a2, a3, a4 = coefficient_arrays(spec, *expand_arrays(c, x, np.array([[0.0], [1.0]])))
    h0, h1 = a2 * a4 - a3 * a3
    return h0, h1 - h0


class TestExactInZ:
    """The verifier maximises over the z disk exactly, as |h0| + |hz|."""

    CIRCLE = np.exp(2j * np.pi * np.arange(4096) / 4096)

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_affine_maximum_matches_dense_circle(self, kind, rng):
        for _ in range(20):
            spec = random_spec(rng, kind)
            c = rng.uniform(0, 2, 16)
            x = np.sqrt(rng.uniform(0, 1, 16)) * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
            h0, hz = _affine_parts(spec, c, x)
            exact = np.abs(h0) + np.abs(hz)
            sampled = np.max(np.abs(h0[:, None] + hz[:, None] * self.CIRCLE[None, :]), axis=1)
            np.testing.assert_allclose(exact, sampled, rtol=1e-6)
            assert np.all(exact >= sampled - 1e-12)
            # the reported maximiser attains it
            attained = [abs(a + b * _maximising_z(complex(a), complex(b))) for a, b in zip(h0, hz)]
            np.testing.assert_allclose(attained, exact, rtol=1e-12)

    def test_interior_maximum_found_exactly(self, monkeypatch):
        # a stand-in functional a2 a4 - a3^2 = c3 + e^{i} at c = 0 and c3
        # elsewhere, so h0 has one phase at every c: since |c3| <= 2, its
        # supremum 3 is reached only at c = 0, x = 0 with z = e^{i}, off
        # every grid angle, where hz = 2 is far from 0
        def shifted_c3(spec, c1, c2, c3):
            return np.ones_like(c3), np.zeros_like(c3), c3 + np.exp(1j) * (c1 == 0)

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", shifted_c3)
        report = hb.empirical_sup(hb.starlike(hb.preset("halfplane")), grid=(8, 8, 8))
        assert report.empirical_sup == pytest.approx(3.0, rel=1e-15)
        assert (report.argmax.c, report.argmax.x) == (0.0, 0j)
        assert report.argmax.z == pytest.approx(np.exp(1j), rel=1e-15)

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_sup_matches_sampled_z_on_same_grid(self, kind, rng):
        # the z-sampling verifier this one replaced, kept as the reference
        grid = (8, 8, 8)
        c_values = np.linspace(0.0, 2.0, grid[0])
        angles = np.exp(2j * np.pi * np.arange(grid[2]) / grid[2])
        x = (np.linspace(0.0, 1.0, grid[1])[:, None] * angles[None, :]).ravel()
        for _ in range(5):
            spec = random_spec(rng, kind)
            sampled = 0.0
            for c in c_values:
                h0, hz = _affine_parts(spec, float(c), x)
                values = np.abs(h0[:, None] + hz[:, None] * self.CIRCLE[None, :])
                sampled = max(sampled, float(values.max()))
            sup = hb.empirical_sup(spec, grid=grid).empirical_sup
            assert sup >= sampled - 1e-12
            assert sup == pytest.approx(sampled, rel=1e-6)


class TestMirrorHalf:
    """The verifier takes the maximum over the x disk exactly, so it is at
    least the full circle of every ring, and it reports a maximiser in the
    upper half of the disk, which loses nothing since |a2 a4 - a3^2| is
    unchanged by (x, z) -> (conj x, conj z) when B1, B2, B3 are real."""

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_functional_is_symmetric_under_conjugation(self, kind, rng):
        # rgt draws a complex tau, and a complex target or class parameter
        # that broke the symmetry would fail here
        for _ in range(40):
            spec = random_spec(rng, kind)
            c = rng.uniform(0, 2, 64)
            x = np.sqrt(rng.uniform(0, 1, 64)) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
            z = np.sqrt(rng.uniform(0, 1, 64)) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
            values = []
            for xs, zs in ((x, z), (np.conj(x), np.conj(z))):
                a2, a3, a4 = coefficient_arrays(spec, *expand_arrays(c, xs, zs))
                values.append(np.abs(a2 * a4 - a3 * a3))
            np.testing.assert_allclose(values[1], values[0], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("grid", [(16, 8, 16), (8, 8, 9), (32, 16, 32)])
    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_sup_matches_full_circle(self, kind, grid, rng):
        # the full circle of every ring at every c is a lower reference: on
        # (8, 8, 9), for one, no angle is pi, so x = -1 is missed
        n_c, n_r, n_t = grid
        angles = np.exp(2j * np.pi * np.arange(n_t) / n_t)
        x = (np.linspace(0.0, 1.0, n_r)[:, None] * angles[None, :]).ravel()
        for _ in range(4):
            spec = random_spec(rng, kind)
            full = 0.0
            for c in np.linspace(0.0, 2.0, n_c):
                h0, hz = _affine_parts(spec, float(c), x)
                full = max(full, float(np.max(np.abs(h0) + np.abs(hz))))
            report = hb.empirical_sup(spec, grid=grid)
            assert report.empirical_sup >= full * (1 - 1e-12)
            assert report.empirical_sup == pytest.approx(full, rel=1e-2, abs=0)
            assert report.argmax.c in np.linspace(0.0, 2.0, n_c)
            assert report.argmax.x.imag >= 0

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, (8, 8, 9), (16, 8, 16)])
    def test_points_per_c(self, monkeypatch, grid):
        # one call on (x, z) in {(0, 0), (1, 0), (-1, 0), (0, 1)} for every c,
        # the full rings at the reported c in one call of x = 0 and every
        # ring, as each of these grids has at most _BLOCK ring points, then
        # the guard's one scalar point; the largest argument of each call
        # counts its points, however they are laid out
        sizes = []

        def spy(spec, c1, c2, c3):
            sizes.append(max(np.size(c1), np.size(c2), np.size(c3)))
            return coefficient_arrays(spec, c1, c2, c3)

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", spy)
        n_c, n_r, n_t = grid
        ring = 1 + (n_r - 1) * n_t
        hb.empirical_sup(hb.starlike(hb.preset("lemniscate")), grid=grid)
        assert sizes == [4 * n_c, ring, 1]


class TestLemma:
    """``_lemma_case`` against a brute force over the x disk."""

    # the upper half of the disk, 101 radii by 181 angles; A, B, C are real,
    # so the lower half mirrors it
    DISK = (np.linspace(0.0, 1.0, 101)[:, None] * np.exp(1j * np.linspace(0.0, np.pi, 181))[None, :]).ravel()

    @staticmethod
    def _draw(rng, k):
        # every fifth has D = 0, every fifth |C| >= D, and some have an exact
        # zero or tie, so the boundaries between cases are crossed
        A, B, C = rng.normal(size=3) * rng.choice([0.1, 1.0, 10.0], size=3)
        D = abs(rng.normal()) * rng.choice([0.1, 1.0, 10.0])
        if k % 5 == 0:
            D = 0.0
        elif k % 5 == 1:
            D = abs(C) * rng.choice([rng.uniform(0.1, 1.0), 1.0])
        if k % 7 == 0:
            A, B, C = (0.0 if i == k % 3 else v for i, v in enumerate((A, B, C)))
        return float(A), float(B), float(C), float(D)

    def test_against_disk_brute_force(self):
        rng = np.random.default_rng(21)
        hits = dict.fromkeys(range(1, 8), 0)
        for k in range(1500):
            A, B, C, D = self._draw(rng, k)
            case, value, x = _lemma_case(A, B, C, D)
            hits[case] += 1
            scale = abs(A) + abs(B) + abs(C) + D
            grid = float(np.max(np.abs(A + (B + C * self.DISK) * self.DISK) + D * (1 - np.abs(self.DISK) ** 2)))
            assert value >= grid - 1e-12 * scale, (A, B, C, D, case)
            assert value <= grid + 1e-3 * scale, (A, B, C, D, case)
            assert x.imag >= 0 and abs(x) <= 1 + 1e-15, (A, B, C, D, case)
            attained = abs(A + (B + C * x) * x) + D * (1 - abs(x) ** 2)
            assert attained == pytest.approx(value, rel=1e-12, abs=1e-12 * scale), (A, B, C, D, case)
        assert all(hits.values()), hits

    def test_zero_d_is_the_circle_maximum(self):
        # c = 0 and c = 2 give D = 0: the maximum of |A + B x + C x^2| on |x| = 1
        assert _lemma_case(0.0, 0.0, -3.0, 0.0)[1:] == (3.0, -1 + 0j)
        assert _lemma_case(2.0, 0.0, 0.0, 0.0)[1:] == (2.0, 1 + 0j)
        assert _lemma_case(0.0, 0.0, 0.0, 0.0)[1] == 0.0


def _quadratic_parts(spec, c):
    """A, B, C of h0 = A + B x + C x^2 at the points c, read at x = 0, 1, -1."""
    h = [_affine_parts(spec, c, np.full_like(c, x, dtype=complex))[0] for x in (0, 1, -1)]
    return h[0], 0.5 * (h[1] - h[2]), 0.5 * (h[1] + h[2]) - h[0]


class TestQuadraticInX:
    """h0 is A + B x + C x^2 with A, B, C of one phase at each c, which is
    what lets the lemma give the maximum over both disks."""

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_three_points_reproduce_h0_with_one_phase(self, kind, rng):
        # rgt draws a complex tau
        for _ in range(20):
            spec = random_spec(rng, kind)
            c = rng.uniform(0, 2, 64)
            x = np.sqrt(rng.uniform(0, 1, 64)) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
            A, B, C = _quadratic_parts(spec, c)
            a2, a3, a4 = coefficient_arrays(spec, *expand_arrays(c, x, 0j))
            size = np.abs(a2 * a4) + np.abs(a3) ** 2
            assert np.all(np.abs(A + B * x + C * x * x - (a2 * a4 - a3 * a3)) <= 1e-12 * size)
            stacked = np.stack((A, B, C))
            largest = stacked[np.argmax(np.abs(stacked), axis=0), np.arange(64)]
            rotated = stacked * np.conj(largest) / np.abs(largest)
            assert np.all(np.abs(rotated.imag) <= 1e-12 * np.abs(largest))

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_verifier_reads_the_same_quadratic(self, kind, rng):
        spec = random_spec(rng, kind)
        c = np.linspace(0.0, 2.0, 64)
        phase, abc, hz_unit, _ = _quadratic_in_x(spec, c)
        for mine, theirs in zip(abc, _quadratic_parts(spec, c)):
            np.testing.assert_allclose(phase * mine, theirs, rtol=1e-13, atol=1e-15)
        _, hz = _affine_parts(spec, c, np.zeros_like(c, dtype=complex))
        np.testing.assert_allclose(hz_unit, hz, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("k", [1e60, 1e-60])
    def test_sup_scales_with_the_functional(self, monkeypatch, k):
        # a2, a3, a4 times k scale the functional by k^2; at 1e+-120 the
        # fourth powers in the lemma's conditions would leave the float
        # range, so each c's A, B, C, D reach the lemma scaled to order 1
        spec = hb.convex(hb.preset("order_alpha", alpha=0.25))
        base = hb.empirical_sup(spec)
        largest = []

        def scaled(spec, c1, c2, c3):
            return tuple(k * a for a in coefficient_arrays(spec, c1, c2, c3))

        def spy(A, B, C, D):
            largest.append(max(abs(A), abs(B), abs(C), D))
            return _lemma_case(A, B, C, D)

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", scaled)
        monkeypatch.setattr("hankelbound.verify._lemma_case", spy)
        report = hb.empirical_sup(spec)
        assert len(largest) == DEFAULT_GRID[0]
        assert all(0.5 <= v < 1.0 for v in largest)
        assert report.empirical_sup == pytest.approx(k * k * base.empirical_sup, rel=1e-14)
        assert report.argmax == base.argmax

    def test_two_phases_are_refused(self, monkeypatch):
        # a2 a4 - a3^2 = c3 + e^{i}: at c > 0, A = c^3/4 + e^{i} is complex
        # while B and C are real
        def shifted_c3(spec, c1, c2, c3):
            return np.ones_like(c3), np.zeros_like(c3), c3 + np.exp(1j)

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", shifted_c3)
        with pytest.raises(ValueError, match="not a quadratic with one phase"):
            hb.empirical_sup(hb.starlike(hb.preset("halfplane")), grid=(8, 8, 8))


    @pytest.mark.parametrize("bad", [[5], list(range(16))], ids=["one_c", "every_c"])
    def test_non_finite_reading_is_refused(self, monkeypatch, bad):
        # a nan compares false both ways: unchecked, it drops its c from the
        # maximum, or with every c nan leaves the -1.0 start value as the sup
        c_values = np.linspace(0.0, 2.0, 16)

        def nan_at(spec, c1, c2, c3):
            a2, a3, a4 = coefficient_arrays(spec, c1, c2, c3)
            return a2, a3, np.where(np.isin(np.real(c1), c_values[bad]), np.nan, a4)

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", nan_at)
        message = f"functional of starlike at c={float(c_values[bad[0]])!r} is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            hb.empirical_sup(hb.starlike(hb.preset("halfplane")), grid=(16, 8, 8))


class TestGuards:
    """A lemma that understates is caught by the rings, one that overstates
    by the direct evaluation at the reported point."""

    @pytest.mark.parametrize("factor, message", [(0.99, "the lemma understates"), (1.01, "the lemma overstates")])
    def test_misstated_lemma_is_refused(self, monkeypatch, factor, message):
        def misstated(A, B, C, D):
            case, value, x = _lemma_case(A, B, C, D)
            return case, factor * value, x

        monkeypatch.setattr("hankelbound.verify._lemma_case", misstated)
        with pytest.raises(ValueError, match=message) as refused:
            hb.empirical_sup(hb.starlike(hb.preset("lemniscate")))
        # the CLI prints the message as it is, so it shows plain numbers
        assert "np." not in str(refused.value)

    def test_slight_understatement_is_refused(self, monkeypatch):
        # the ring's slack is 1e-12 of the value or of the terms at the ring
        # point, whichever is larger: far under 1e-9 of the value on a preset
        def understated(A, B, C, D):
            case, value, x = _lemma_case(A, B, C, D)
            return case, value * (1.0 - 1e-9), x

        monkeypatch.setattr("hankelbound.verify._lemma_case", understated)
        with pytest.raises(ValueError, match="the lemma understates"):
            hb.empirical_sup(hb.starlike(hb.preset("lemniscate")))

    def test_ring_slack_scales_with_the_terms(self):
        # at (1e8, 1e16, 1e24) the maximum is about 1e-9 of its terms, so
        # rounding lifts the ring by about 1e-7 of it, and that is no fault
        spec = hb.starlike(hb.custom(1e8, 1e16, 1e24))
        report = hb.empirical_sup(spec, grid=(16, 8, 8))
        assert report.margin > 0

    def test_rings_reach_the_lemma_on_presets(self):
        # the ring check has room: its best point is within 1e-3 of the lemma
        for phi in preset_catalogue():
            for spec in class_catalogue(phi):
                report = hb.empirical_sup(spec, grid=(16, 32, 64))
                c = report.argmax.c
                angles = np.exp(2j * np.pi * np.arange(64) / 64)
                x = (np.linspace(0.0, 1.0, 32)[:, None] * angles[None, :]).ravel()
                h0, hz = _affine_parts(spec, c, x)
                rings = float(np.max(np.abs(h0) + np.abs(hz)))
                assert rings <= report.empirical_sup * (1 + 1e-12)
                assert rings >= report.empirical_sup * (1 - 1e-3), (spec.describe(), phi.label)

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_rings_in_halves_match_one_full_circle(self, monkeypatch, kind, rng):
        # on the doubled grid each ring call stays under 8,192 points, so its
        # complex temporaries stay under 128 KB; the best ring point is the
        # one a single evaluation of x = 0 and every ring finds, bit for bit;
        # a value of 0 trips the ring direction before the point is read
        sizes = []

        def spy(spec, c1, c2, c3):
            sizes.append(max(np.size(c1), np.size(c2), np.size(c3)))
            return coefficient_arrays(spec, c1, c2, c3)

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", spy)
        n_r, n_t = 64, 128
        angles = np.exp(2j * np.pi * np.arange(n_t) / n_t)
        x = np.concatenate(([0j], (np.linspace(0.0, 1.0, n_r)[1:, None] * angles[None, :]).ravel()))
        for _ in range(5):
            spec = random_spec(rng, kind)
            c = float(rng.uniform(0, 2))
            d = abs(complex(_quadratic_in_x(spec, np.array([c]))[2][0]))
            a2, a3, a4 = coefficient_arrays(spec, *expand_arrays(c, x, 0.0))
            values = np.abs(a2 * a4 - a3 * a3) + d * hb.verify._disk_weight(x)
            ix = int(np.argmax(values))
            sizes.clear()
            with pytest.raises(ValueError) as refused:
                _check_at_c(spec, CaratheodoryPoint(c, 0j, 1 + 0j), d, (n_r, n_t), 0.0)
            assert len(sizes) == 2 and max(sizes) < 8192
            found = re.search(r"ring value (\S+) of .* x=(\S+) beats", str(refused.value))
            assert float(found[1]) == float(values[ix])
            assert complex(found[2]) == complex(x[ix])


def _check_a4_affine_in_c3(spec, rng):
    """At 200 seeded points, moving c3 by d leaves a2 and a3 alone and moves
    a4 by slope * d, with the slope read at c1 = c2 = 0, and moving c2 leaves
    a2 alone, through the coefficient_arrays the verifier uses."""
    coefficients = hb.verify.coefficient_arrays
    _, _, a4 = coefficients(spec, 0j, 0j, np.array([0j, 1 + 0j]))
    slope = complex(a4[1] - a4[0])
    c = rng.uniform(0, 2, 200)
    x = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    z = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    d = 2 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    c1, c2, c3 = expand_arrays(c, x, z)
    a2, a3, a4 = coefficients(spec, c1, c2, c3)
    b2, b3, b4 = coefficients(spec, c1, c2, c3 + d)
    np.testing.assert_allclose(b2, a2, rtol=1e-13, atol=0)
    np.testing.assert_allclose(b3, a3, rtol=1e-13, atol=0)
    np.testing.assert_allclose(b4, a4 + slope * d, rtol=1e-13, atol=1e-13 * abs(slope))
    # the rings scale the z-term read at x = 0 by 1 - |x|^2, so a2 is free of x
    moved, _, _ = coefficients(spec, c1, c2 + d, c3)
    np.testing.assert_allclose(moved, a2, rtol=1e-13, atol=0)


class TestAffineInC3:
    """The verifier reads the z-term at x = 0 and scales it by 1 - |x|^2,
    which rests on a4 = slope(c1) * c3 + f(c1, c2) and a2 free of c2."""

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_a4_is_affine_in_c3(self, kind, rng):
        # rgt draws a complex tau
        for _ in range(10):
            _check_a4_affine_in_c3(random_spec(rng, kind), rng)

    def test_premise_check_catches_a_c1_dependent_slope(self, monkeypatch, rng):
        def mutant(spec, c1, c2, c3):
            a2, a3, a4 = coefficient_arrays(spec, c1, c2, c3)
            return a2, a3, a4 + 0.1 * c1 * c3

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", mutant)
        with pytest.raises(AssertionError):
            _check_a4_affine_in_c3(hb.starlike(hb.preset("halfplane")), rng)

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_slope_is_read_without_the_bound_path(self, kind, monkeypatch, rng):
        # the paper's slopes, for comparison only: B1/6 (starlike),
        # tau B1 / (8 (1 + 3 gamma)) (rgt), B1 / (8 (1 + 2 a)) (galpha, convex at a = 1)
        spec = random_spec(rng, kind)
        b1 = spec.phi.b1
        if kind == "starlike":
            expected = b1 / 6
        elif kind == "rgt":
            expected = spec.tau * b1 / (8 * (1 + 3 * spec.gamma))
        else:
            expected = b1 / (8 * (1 + 2 * spec.blend))
        for name in ("verify.majorant_surface", "verify.second_hankel_bound",
                     "bounds.profile", "bounds.majorant_weights"):
            monkeypatch.setattr(f"hankelbound.{name}", None)
        # hz_unit = a2 slope (4 - c^2) / 2, here at c = 1
        hz_unit = complex(_quadratic_in_x(spec, np.array([1.0]))[2][0])
        a2 = complex(coefficient_arrays(spec, 1 + 0j, 0j, 0j)[0])
        assert hz_unit / (1.5 * a2) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_sup_is_found_without_the_bound_path(self, kind, monkeypatch, rng):
        # the whole grid path, the rings and the affine-step guard, with every
        # reader of (T, d1..d4) stubbed out or made to raise
        spec = random_spec(rng, kind)
        expected = hb.empirical_sup(spec, grid=(16, 8, 16))

        def raises(*args):
            raise AssertionError("the supremum read (T, d1..d4)")

        monkeypatch.setattr("hankelbound.verify.second_hankel_bound", lambda spec: SimpleNamespace(bound=1.0))
        monkeypatch.setattr("hankelbound.verify.check_mu_monotone", lambda spec: 0)
        monkeypatch.setattr("hankelbound.bounds.profile", raises)
        monkeypatch.setattr("hankelbound.bounds.majorant_weights", raises)
        report = hb.empirical_sup(spec, grid=(16, 8, 16))
        assert (report.empirical_sup, report.argmax) == (expected.empirical_sup, expected.argmax)

    def test_guard_refuses_a4_not_affine_in_c3(self, monkeypatch):
        # a4 = c3^2 + i at c = 0 and 0 elsewhere: at x = 0, c3 = 2z, so the
        # chord through z in {0, 1} gives h0 = i and hz_unit = 4, and the grid's
        # affine value peaks at 5 at (c, x, z) = (0, 0, i), where the direct
        # value is |-4 + i| = sqrt(17)
        def quadratic_c3(spec, c1, c2, c3):
            return np.ones_like(c3), np.zeros_like(c3), (c3 * c3 + 1j) * (c1 == 0)

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", quadratic_c3)
        with pytest.raises(ValueError, match="a4 is not affine in c3"):
            hb.empirical_sup(hb.starlike(hb.preset("halfplane")), grid=(8, 8, 8))

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_sup_follows_a_c1_dependent_slope(self, kind, monkeypatch):
        # a4 gains 5 c1 (c3 - c3 at z = 0), with c3 at z = 0 recovered from
        # (c1, c2): h0 is unchanged, but a4's c3-slope grows with c1, so a
        # z-term read at c1 = 0 alone would miss most of the supremum
        def c1_dependent_slope(spec, c1, c2, c3):
            a2, a3, a4 = coefficient_arrays(spec, c1, c2, c3)
            s = 4.0 - c1 * c1
            x = (2.0 * c2 - c1 * c1) / np.where(s == 0, 1.0, s)  # c3 is 2 at c1 = 2
            return a2, a3, a4 + 5.0 * c1 * (c3 - expand_arrays(c1, x, 0j)[2])

        spec = hb.ClassSpec(kind, hb.preset("halfplane"))
        # 64 x 64 polar x points crossed with 32 z on the circle, at the grid's c
        angles = np.exp(2j * np.pi * np.arange(64) / 64)
        x = (np.linspace(0.0, 1.0, 64)[:, None] * angles[None, :]).reshape(-1, 1)
        z = np.exp(2j * np.pi * np.arange(32) / 32)[None, :]
        brute = 0.0
        for c in np.linspace(0.0, 2.0, 16):
            a2, a3, a4 = c1_dependent_slope(spec, *expand_arrays(c, x, z))
            brute = max(brute, float(np.max(np.abs(a2 * a4 - a3 * a3))))
        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", c1_dependent_slope)
        sup = hb.empirical_sup(spec, grid=(16, 8, 16)).empirical_sup
        assert brute * (1 - 1e-12) <= sup <= brute * (1 + 1e-2)


class TestMuMonotone:
    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_presets_have_no_violations(self, kind):
        for phi in preset_catalogue():
            spec = next(s for s in class_catalogue(phi) if s.kind == kind)
            assert hb.check_mu_monotone(spec) == 0

    def test_random_targets_have_no_violations(self, rng):
        for _ in range(25):
            for spec in class_catalogue(random_phi(rng)):
                assert hb.check_mu_monotone(spec) == 0

    @pytest.mark.parametrize(
        "grid, message",
        [((0, 0), "too small"), ((1, 1), "too small"), ((8, 7), "too small"), ((-3, 5), "too small"),
         ((2**13, 2**12), "too large"), ((4096, 4096), "too large"), ((64.9, 8.5), "axes must be integers"),
         ((64,), "must have 2 axes"), ((64, 64, 64), "must have 2 axes")],
    )
    def test_grid_refused_before_any_array(self, monkeypatch, grid, message):
        # a surface built past the size check fails the test instead of
        # allocating up to 2^25 points, or running at a truncated grid
        def never(*args):
            raise AssertionError("majorant surface built for a refused grid")

        monkeypatch.setattr("hankelbound.verify.majorant_surface", never)
        with pytest.raises(ValueError, match=f"grid {message}"):
            hb.check_mu_monotone(hb.starlike(hb.preset("halfplane")), grid)

    def test_smallest_grid_accepted(self):
        assert hb.check_mu_monotone(hb.starlike(hb.preset("halfplane")), (8, 8)) == 0


class TestMajorantDomination:
    """|a2 a4 - a3^2| never exceeds the majorant at mu = |x|."""

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_signed_functional_below_surface(self, kind, rng):
        for _ in range(60):
            phi = random_phi(rng)
            if kind == "rgt":
                spec = hb.r_gamma_tau(phi, rng.uniform(0, 1), 1 + 0j)
            elif kind == "galpha":
                spec = hb.g_alpha(phi, rng.uniform(0, 1))
            else:
                spec = hb.ClassSpec(kind, phi)
            c = rng.uniform(0, 2, 50)
            x = rng.uniform(-1, 1, 50)
            z = rng.uniform(-1, 1, 50)
            c1, c2, c3 = expand_arrays(c, x, z)
            a2, a3, a4 = coefficient_arrays(spec, c1, c2, c3)
            h = a2 * a4 - a3 * a3
            surface = hb.majorant_surface(spec, c, np.abs(x))
            assert np.max(np.abs(h.imag)) < 1e-12
            assert np.all(h.real <= surface + 1e-10)

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_modulus_below_surface_for_complex_parameters(self, kind, rng):
        # x and z anywhere in the unit disk, any tau
        for _ in range(60):
            spec = random_spec(rng, kind)
            c = rng.uniform(0, 2, 200)
            x = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
            z = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
            c1, c2, c3 = expand_arrays(c, x, z)
            a2, a3, a4 = coefficient_arrays(spec, c1, c2, c3)
            surface = hb.majorant_surface(spec, c, np.abs(x))
            assert np.all(np.abs(a2 * a4 - a3 * a3) <= surface + 1e-10)

    def test_surface_constant_in_mu_at_c_two(self):
        spec = hb.starlike(hb.preset("halfplane"))
        mu = np.linspace(0, 1, 9)
        values = hb.majorant_surface(spec, np.full_like(mu, 2.0), mu)
        assert np.ptp(values) == 0


class TestSoundnessPresets:
    """Grid supremum versus bound for every preset, coarser grid for speed;
    the acceptance suite repeats this at the full grid."""

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_preset_margins_nonnegative(self, kind):
        for phi in preset_catalogue():
            spec = next(s for s in class_catalogue(phi) if s.kind == kind)
            report = hb.empirical_sup(spec, grid=(32, 16, 32))
            assert report.margin >= -1e-9, (phi.label, report.margin)

    def test_grid_refinement_never_lowers_sup(self):
        spec = hb.starlike(hb.preset("halfplane"))
        coarse = hb.empirical_sup(spec, grid=(16, 8, 16)).empirical_sup
        fine = hb.empirical_sup(spec, grid=(32, 16, 32)).empirical_sup
        assert fine >= coarse - 1e-12
