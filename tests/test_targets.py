import cmath
import json
import math
import re

import numpy as np
import pytest

import hankelbound as hb
from hankelbound import targets
from hankelbound.cli import main
from hankelbound.series import TruncatedSeries, compose, div, elementary
from hankelbound.targets import load_phi_file, phi_to_series, preset_series


def taylor_by_cauchy(fn, n_coeffs, radius=0.4, samples=256):
    """Taylor coefficients of an analytic fn by sampling a circle and FFT."""
    ks = np.arange(samples)
    points = radius * np.exp(2j * np.pi * ks / samples)
    values = np.array([fn(p) for p in points])
    coeffs = np.fft.fft(values) / samples
    return coeffs[:n_coeffs] / radius ** np.arange(n_coeffs)


def atanh_sq(z):
    # the parabolic target is 1 + (8/pi^2) atanh(sqrt(z))^2, even in sqrt(z)
    s = cmath.sqrt(z)
    return 1 + (8 / math.pi**2) * cmath.atanh(s) ** 2


ANALYTIC_FORMS = {
    "halfplane": ((), lambda z: (1 + z) / (1 - z)),
    "order_alpha": ({"alpha": 0.3}, lambda z: (1 + (1 - 2 * 0.3) * z) / (1 - z)),
    "strongly_beta": ({"beta": 0.6}, lambda z: ((1 + z) / (1 - z)) ** 0.6),
    "lemniscate": ((), lambda z: cmath.sqrt(1 + z)),
    "parabolic": ((), atanh_sq),
    "janowski": ({"a": 0.75, "b": -0.25}, lambda z: (1 + 0.75 * z) / (1 - 0.25 * z)),
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_FORMS))
def test_preset_series_matches_analytic_expansion(name):
    params, fn = ANALYTIC_FORMS[name]
    params = dict(params) if params else {}
    series = preset_series(name, **params)
    expected = taylor_by_cauchy(fn, series.order + 1)
    np.testing.assert_allclose(np.array(series.coeffs), expected, atol=1e-12)


def test_preset_reads_the_working_series_bitwise():
    # preset() expands at order 3; the triple must be that of the full series
    rng = np.random.default_rng(20250810)
    cases = [("halfplane", {}), ("lemniscate", {}), ("parabolic", {})]
    for _ in range(25):
        a, b = sorted(rng.uniform(-1.0, 1.0, 2), reverse=True)
        cases += [
            ("order_alpha", {"alpha": rng.uniform(0.0, 1.0)}),
            ("strongly_beta", {"beta": rng.uniform(0.01, 1.0)}),
            ("janowski", {"a": a, "b": b}),
        ]
    for name, params in cases:
        phi = hb.preset(name, **params)
        series = preset_series(name, **params)
        assert (phi.b1, phi.b2, phi.b3) == tuple(series[k].real for k in (1, 2, 3)), (name, params)


def test_halfplane_triple():
    phi = hb.preset("halfplane")
    assert (phi.b1, phi.b2, phi.b3) == (2.0, 2.0, 2.0)


def test_lemniscate_triple():
    phi = hb.preset("lemniscate")
    assert (phi.b1, phi.b2, phi.b3) == (0.5, -0.125, 0.0625)


def test_parabolic_triple():
    phi = hb.preset("parabolic")
    pi2 = math.pi**2
    assert phi.b1 == pytest.approx(8 / pi2, abs=1e-14)
    assert phi.b2 == pytest.approx(16 / (3 * pi2), abs=1e-14)
    assert phi.b3 == pytest.approx(184 / (45 * pi2), abs=1e-14)


def test_parabolic_coefficients_by_enumeration():
    # m-th coefficient is (8/pi^2) * sum of 1/(i*j) over odd i + j = 2m
    series = preset_series("parabolic")
    for m in range(1, series.order + 1):
        total = sum(
            1.0 / (i * (2 * m - i)) for i in range(1, 2 * m, 2) if (2 * m - i) % 2 == 1
        )
        assert series[m].real == pytest.approx(8 / math.pi**2 * total, abs=1e-13)


@pytest.mark.parametrize("beta", [0.1, 0.25, 0.5, 0.75, 1.0])
def test_strongly_beta_closed_forms(beta):
    phi = hb.preset("strongly_beta", beta=beta)
    assert phi.b1 == pytest.approx(2 * beta, abs=1e-13)
    assert phi.b2 == pytest.approx(2 * beta**2, abs=1e-13)
    assert phi.b3 == pytest.approx(2 * beta * (1 + 2 * beta**2) / 3, abs=1e-13)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.875])
def test_order_alpha_closed_forms(alpha):
    phi = hb.preset("order_alpha", alpha=alpha)
    b = 2 * (1 - alpha)
    assert (phi.b1, phi.b2, phi.b3) == (b, b, b)


@pytest.mark.parametrize("a,b", [(0.5, -0.5), (1.0, -1.0), (0.25, 0.0), (0.8, 0.3)])
def test_janowski_closed_forms(a, b):
    phi = hb.preset("janowski", a=a, b=b)
    assert phi.b1 == pytest.approx(a - b, abs=1e-14)
    assert phi.b2 == pytest.approx(-b * (a - b), abs=1e-14)
    assert phi.b3 == pytest.approx(b * b * (a - b), abs=1e-14)


def test_order_alpha_zero_is_halfplane_exactly():
    assert hb.preset("order_alpha", alpha=0.0).b1 == hb.preset("halfplane").b1
    assert hb.preset("order_alpha", alpha=0.0).b2 == hb.preset("halfplane").b2
    assert hb.preset("order_alpha", alpha=0.0).b3 == hb.preset("halfplane").b3


def test_strongly_beta_one_is_halfplane():
    phi = hb.preset("strongly_beta", beta=1.0)
    hp = hb.preset("halfplane")
    assert phi.b1 == pytest.approx(hp.b1, abs=1e-12)
    assert phi.b2 == pytest.approx(hp.b2, abs=1e-12)
    assert phi.b3 == pytest.approx(hp.b3, abs=1e-12)


class TestCustom:
    def test_matches_halfplane_fields(self):
        phi = hb.custom(2, 2, 2, "hp")
        hp = hb.preset("halfplane")
        assert (phi.b1, phi.b2, phi.b3) == (hp.b1, hp.b2, hp.b3)

    def test_rejects_nonpositive_b1(self):
        with pytest.raises(ValueError, match="b1"):
            hb.custom(0, 1, 1, "bad")
        with pytest.raises(ValueError, match="b1"):
            hb.custom(1e-13, 1, 1, "tiny")

    def test_wild_but_valid(self):
        phi = hb.custom(1, -5, 3, "wild")
        assert (phi.b1, phi.b2, phi.b3) == (1.0, -5.0, 3.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hb.custom(1, math.nan, 0)
        with pytest.raises(ValueError):
            hb.custom(math.inf, 0, 0)

    def test_rejects_int_too_large_for_a_float(self):
        with pytest.raises(ValueError, match="b1 must be a real number"):
            hb.custom(10**400, 0, 0)


class TestPresetValidation:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            hb.preset("circle")

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 2.0])
    def test_order_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            hb.preset("order_alpha", alpha=alpha)

    @pytest.mark.parametrize("beta", [0.0, -1.0, 1.5])
    def test_strongly_beta_range(self, beta):
        with pytest.raises(ValueError):
            hb.preset("strongly_beta", beta=beta)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.2, 0.4), (1.2, 0.0), (0.5, -1.5)])
    def test_janowski_range(self, a, b):
        with pytest.raises(ValueError):
            hb.preset("janowski", a=a, b=b)

    @pytest.mark.parametrize(
        "name, params, expected",
        [("halfplane", {"alpha": 0.3}, "()"), ("janowski", {"a": 0.5}, "(a, b)"), ("order_alpha", {"beta": 0.5}, "(alpha)")],
    )
    def test_wrong_parameters(self, name, params, expected):
        # a missing or stray parameter is refused, never ignored or a KeyError
        with pytest.raises(ValueError, match=re.escape(f"preset {name} takes parameters {expected}")):
            hb.preset(name, **params)


@pytest.mark.parametrize(
    "name, params",
    [
        pytest.param("order_alpha", lambda v: {"alpha": v}, id="order_alpha"),
        pytest.param("strongly_beta", lambda v: {"beta": v}, id="strongly_beta"),
        pytest.param("janowski", lambda v: {"a": v, "b": -0.5}, id="janowski"),
    ],
)
def test_preset_caches_are_bounded(name, params):
    cache = targets._preset_triple
    values = np.linspace(0.01, 0.99, cache.cache_info().maxsize + 1)
    for value in values:
        hb.preset(name, **params(value))
    info = cache.cache_info()
    assert info.currsize == info.maxsize
    # the most recent parameters are still cached, and the first are evicted
    hb.preset(name, **params(values[-1]))
    assert cache.cache_info().hits == info.hits + 1
    hb.preset(name, **params(values[0]))
    assert cache.cache_info().misses == info.misses + 1


def test_one_cache_serves_every_preset():
    caches = [v for v in vars(targets).values() if callable(getattr(v, "cache_info", None))]
    assert caches == [targets._preset_triple]


def bits(series):
    # repr tells -0.0 from 0.0, which == does not
    return repr(series.coeffs)


class TestPresetFamilies:
    """halfplane and order_alpha are Janowski targets; strongly_beta and
    parabolic are built on L(z) = log((1+z)/(1-z))."""

    @pytest.mark.parametrize("order", [3, 8])
    def test_halfplane_is_janowski_one_minus_one(self, order):
        series = preset_series("halfplane", order)
        assert bits(series) == bits(preset_series("janowski", order, a=1.0, b=-1.0))
        z = TruncatedSeries.z(order)
        assert bits(series) == bits(div(1 + z, 1 - z))

    @pytest.mark.parametrize("order", [3, 8])
    def test_order_alpha_is_janowski(self, order):
        rng = np.random.default_rng(18)
        for alpha in [0.0, 0.5, *rng.uniform(0.0, 1.0, 50)]:
            series = preset_series("order_alpha", order, alpha=alpha)
            assert bits(series) == bits(preset_series("janowski", order, a=1 - 2 * alpha, b=-1.0)), alpha
            z = TruncatedSeries.z(order)
            assert bits(series) == bits(div(1 + (1 - 2 * alpha) * z, 1 - z)), alpha
            phi, jan = hb.preset("order_alpha", alpha=alpha), hb.preset("janowski", a=1 - 2 * alpha, b=-1.0)
            assert (phi.b1, phi.b2, phi.b3) == (jan.b1, jan.b2, jan.b3), alpha

    def test_parabolic_squares_the_strongly_beta_log(self):
        # strongly_beta(1) is exp(L); parabolic reads L^2 at twice the order
        L = targets._log_ratio(16)
        assert bits(targets._log_ratio(8)) == bits(L.truncate(8))
        assert bits(preset_series("strongly_beta", beta=1.0)) == bits(compose(elementary("exp", 8), L.truncate(8)))
        squared = L * L
        assert [c.real for c in preset_series("parabolic").coeffs[1:]] == [
            2.0 / math.pi**2 * squared[2 * m].real for m in range(1, 9)
        ]

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_label_is_per_call(self, first):
        # -0.0 and 0.0 share a cache entry but keep their own labels
        targets._preset_triple.cache_clear()
        labels = {repr(v): hb.preset("order_alpha", alpha=v).label for v in (first, -first)}
        assert labels == {"-0.0": "order_alpha(alpha=-0)", "0.0": "order_alpha(alpha=0)"}


class TestPhiFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"B1": 1.25, "B2": -0.5, "B3": 0.75, "label": "mine"}))
        phi = load_phi_file(path)
        assert (phi.b1, phi.b2, phi.b3, phi.label) == (1.25, -0.5, 0.75, "mine")

    def test_missing_key(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"B1": 1.0, "B2": 0.0}))
        with pytest.raises(ValueError, match="missing keys: B3"):
            load_phi_file(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text("B1 = 1")
        with pytest.raises(ValueError, match="malformed"):
            load_phi_file(path)

    def test_json_list_refused(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps([1.0, 0.5, 0.25]))
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_phi_file(path)

    def test_label_defaults(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"B1": 1, "B2": 0, "B3": 0}))
        assert load_phi_file(path).label == "custom"

    @pytest.mark.parametrize(
        "data",
        [
            {"B1": True, "B2": 0, "B3": 0},
            {"B1": 1, "B2": False, "B3": 0},
            {"B1": "2", "B2": 0, "B3": 0},
            {"B1": 1, "B2": 0, "B3": None},
            {"B1": 1, "B2": [0], "B3": 0},
        ],
    )
    def test_non_number_value_refused(self, tmp_path, data):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="must be a JSON number"):
            load_phi_file(path)

    def test_int_too_large_for_a_float_refused(self, tmp_path, capsys):
        path = tmp_path / "phi.json"
        path.write_text('{"B1": 1' + "0" * 400 + ', "B2": 0, "B3": 0}')
        with pytest.raises(ValueError, match="b1 must be a real number"):
            load_phi_file(path)
        assert main(["bound", "--phi-file", str(path)]) == 2
        assert "b1 must be a real number" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [1, None, ["mine"], {"x": 1}])
    def test_non_string_label_refused(self, tmp_path, label):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"B1": 1, "B2": 0, "B3": 0, "label": label}))
        with pytest.raises(ValueError, match="label must be a string"):
            load_phi_file(path)


def test_phi_to_series_pads_with_zeros():
    s = phi_to_series(hb.custom(1, 0, 0), order=5)
    assert s.coeffs == (1, 1, 0, 0, 0, 0)
