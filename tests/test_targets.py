import cmath
import json
import math
import re

import numpy as np
import pytest

import hankelbound as hb
from hankelbound import targets
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
    "name, cache, params",
    [
        ("order_alpha", targets._order_alpha_series, lambda v: {"alpha": v}),
        ("strongly_beta", targets._strongly_beta_series, lambda v: {"beta": v}),
        ("janowski", targets._janowski_series, lambda v: {"a": v, "b": -0.5}),
    ],
)
def test_preset_caches_are_bounded(name, cache, params):
    values = np.linspace(0.01, 0.99, 2000)
    for value in values:
        hb.preset(name, **params(value))
    info = cache.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    # the most recent parameters are still cached
    hb.preset(name, **params(values[-1]))
    assert cache.cache_info().hits == info.hits + 1


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

    @pytest.mark.parametrize("label", [1, None, ["mine"], {"x": 1}])
    def test_non_string_label_refused(self, tmp_path, label):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"B1": 1, "B2": 0, "B3": 0, "label": label}))
        with pytest.raises(ValueError, match="label must be a string"):
            load_phi_file(path)


def test_phi_to_series_pads_with_zeros():
    s = phi_to_series(hb.custom(1, 0, 0), order=5)
    assert s.coeffs == (1, 1, 0, 0, 0, 0)
