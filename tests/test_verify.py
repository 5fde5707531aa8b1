import tracemalloc

import numpy as np
import pytest

import hankelbound as hb
from hankelbound.classes import coefficient_arrays
from hankelbound.verify import (
    _RIDE_ALONG,
    DEFAULT_GRID,
    MAX_GRID_POINTS,
    MAX_SAMPLES,
    _disk_samples,
    _maximising_z,
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

    def test_point_validation(self):
        with pytest.raises(ValueError):
            hb.CaratheodoryPoint(2.5, 0, 0)
        with pytest.raises(ValueError):
            hb.CaratheodoryPoint(1.0, 1.5, 0)
        with pytest.raises(ValueError):
            hb.CaratheodoryPoint(1.0, 0, 1 + 1j)

    def test_mu_defaults_to_x_modulus(self):
        point = hb.CaratheodoryPoint(1.0, 0.6j, 0)
        assert point.mu == pytest.approx(0.6)


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

    def test_sample_count_capped(self):
        with pytest.raises(ValueError, match="at most"):
            hb.check_caratheodory_bounds(MAX_SAMPLES + 1)

    @pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 100_000])
    @pytest.mark.parametrize("seed", range(10))
    def test_result_is_pinned(self, samples, seed):
        # the ride-along points reach 2 exactly, and no drawn point passes it
        assert hb.check_caratheodory_bounds(samples, seed) == (2.0, 2.0)

    @pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 100_000])
    @pytest.mark.parametrize("seed", range(10))
    def test_streamed_draws_are_the_whole_array_draws(self, monkeypatch, samples, seed):
        # the oracle: per block of at most 4,096, c, then the x rounds, then
        # the z rounds, from one generator; each disk is drawn by rejection
        # from [-1, 1]^2 in rounds of 2 (need + need // 3 + 16) doubles
        def disk(rng, n):
            kept = []
            while len(kept) < n:
                need = n - len(kept)
                square = 2.0 * rng.random(2 * (need + need // 3 + 16)) - 1.0
                points = square[0::2] + 1j * square[1::2]
                kept.extend(points[np.abs(points) <= 1.0][:need])
            return np.array(kept)

        rng = np.random.default_rng(seed)
        oracle = []
        for start in range(0, samples, 4096):
            n = min(4096, samples - start)
            oracle.append((rng.uniform(0.0, 2.0, n), disk(rng, n), disk(rng, n)))
        seen = []

        def spy(c, x, z):
            seen.append((c, x, z))
            return expand_arrays(c, x, z)

        monkeypatch.setattr("hankelbound.verify.expand_arrays", spy)
        hb.check_caratheodory_bounds(samples, seed)
        blocks, ride_along = seen[:-1], seen[-1]
        assert np.array_equal(ride_along[0], [2.0, 0.0])
        assert len(blocks) == len(oracle)
        for block, expected in zip(blocks, oracle):
            for streamed, drawn in zip(block, expected):
                assert np.array_equal(streamed, drawn)

    @pytest.mark.parametrize("seed", [0, 1729])
    def test_draws_detect_a_faulty_expansion(self, monkeypatch, seed):
        # c3 without the (1 - |x|^2) factor on z: the ride-along points miss
        # it, so only the random draws can push |c3| past 2
        def faulty_expand(c, x, z):
            s = 4.0 - c * c
            c3 = 0.25 * (c * c * c + 2.0 * s * c * x - c * s * x * x + 2.0 * s * z)
            return c + 0j, 0.5 * (c * c + x * s), c3

        _, c2, c3 = faulty_expand(*(np.array(v) for v in _RIDE_ALONG))
        assert (np.max(np.abs(c2)), np.max(np.abs(c3))) == (2.0, 2.0)
        monkeypatch.setattr("hankelbound.verify.expand_arrays", faulty_expand)
        _, max_c3 = hb.check_caratheodory_bounds(100_000, seed)
        assert max_c3 > 3

    def test_short_round_is_topped_up(self):
        # a first round of zeros maps to -1 - 1i, outside the disk, so every
        # point comes from the second round
        class FirstRoundOutside:
            def __init__(self):
                self.sizes = []
                self.rng = np.random.default_rng(5)

            def random(self, size):
                self.sizes.append(size)
                return np.zeros(size) if len(self.sizes) == 1 else self.rng.random(size)

        stub = FirstRoundOutside()
        points = _disk_samples(stub, 1000)
        assert len(points) == 1000
        assert np.all(np.abs(points) <= 1.0)
        assert stub.sizes == [2 * (1000 + 333 + 16)] * 2

    @pytest.mark.parametrize("seed", [0, 1729])
    def test_disk_points_are_uniform(self, seed):
        # E|p|^2 = 1/2, E p = 0 and a quarter in each quadrant; each limit is
        # more than 5 sd out at 100,000 points, and a missing 2u - 1 map
        # would put every point in the first quadrant
        points = _disk_samples(np.random.default_rng(seed), 100_000)
        assert len(points) == 100_000
        assert np.all(np.abs(points) <= 1.0)
        assert abs(np.mean(np.abs(points) ** 2) - 0.5) <= 0.005
        assert abs(np.mean(points)) < 0.01
        for re_sign in (1, -1):
            for im_sign in (1, -1):
                share = np.mean((re_sign * points.real > 0) & (im_sign * points.imag > 0))
                assert abs(share - 0.25) <= 0.01

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
        # refused before the grid is built: 64 * 262,145 points exceed the cap
        with pytest.raises(ValueError, match="grid too large"):
            hb.empirical_sup(hb.starlike(hb.preset("halfplane")), grid=(8, 8, MAX_GRID_POINTS // 64 + 1))

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
        # a stand-in functional a2 a4 - a3^2 = c3 + e^{i}: since
        # |c3| <= 2, its supremum 3 is reached only at c = 0, x = 0 with
        # z = e^{i}, off every grid angle, where hz = 2 is far from 0
        def shifted_c3(spec, c1, c2, c3):
            return np.ones_like(c3), np.zeros_like(c3), c3 + np.exp(1j)

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
    """The verifier evaluates x = 0 and the upper half of every ring; the
    lower half mirrors it, since |a2 a4 - a3^2| is unchanged by
    (x, z) -> (conj x, conj z) when B1, B2, B3 are real."""

    @pytest.mark.parametrize("kind", hb.classes.KINDS)
    def test_functional_is_symmetric_under_conjugation(self, kind, rng):
        # the premise; rgt draws a complex tau, and a complex target or class
        # parameter that broke the symmetry would fail here
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
            assert report.empirical_sup <= full
            assert report.empirical_sup == pytest.approx(full, rel=1e-14, abs=0)
            assert report.argmax.x.imag >= 0

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, (8, 8, 9), (16, 8, 16)])
    def test_points_per_c(self, monkeypatch, grid):
        sizes = []

        def spy(spec, c1, c2, c3):
            sizes.append(np.shape(c2))
            return coefficient_arrays(spec, c1, c2, c3)

        monkeypatch.setattr("hankelbound.verify.coefficient_arrays", spy)
        n_c, n_r, n_t = grid
        hb.empirical_sup(hb.starlike(hb.preset("lemniscate")), grid=grid)
        assert sizes == [(1 + (n_r - 1) * (n_t // 2 + 1),)] * n_c
        if grid == DEFAULT_GRID:
            assert sizes[0] == (1024,)


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
         ((2**13, 2**12), "too large")],
    )
    def test_grid_refused_before_any_array(self, monkeypatch, grid, message):
        # a surface built past the size check fails the test instead of
        # allocating 2^25 points
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
