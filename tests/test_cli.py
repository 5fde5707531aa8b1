import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelbound as hb
from hankelbound.cli import SWEEP_VARS, build_parser, main, parse_complex

from conftest import REGION_OVERFLOW_TARGET, verify_against_closed_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """``python`` with this package's source on its path, in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(hb.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


class TestParseComplex:
    def test_a_plus_bi(self):
        assert parse_complex("2+0i") == 2 + 0j
        assert parse_complex("1.5-2i") == 1.5 - 2j
        assert parse_complex("3") == 3 + 0j
        assert parse_complex("2+1i") == 2 + 1j
        assert parse_complex("i") == 1j
        assert parse_complex("-0.5i") == -0.5j

    def test_only_a_trailing_i_is_the_imaginary_unit(self):
        assert parse_complex("inf") == complex(math.inf, 0.0)
        assert parse_complex("1+infi") == complex(1.0, math.inf)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex("two")


class TestBoundCommand:
    def test_lemniscate_json(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--class", "starlike", "--preset", "lemniscate", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == pytest.approx(0.0625)
        assert payload["branch"] == "caseR"
        assert payload["phi"]["B1"] == 0.5
        assert payload["class"]["kind"] == "starlike"

    def test_custom_halfplane(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--custom", "2,2,2", "--format", "json")
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(1.0)

    def test_tau_modulus_scaling(self, capsys):
        _, out1, _ = run_cli(
            capsys, "bound", "--class", "rgt", "--gamma", "0.5", "--tau", "1+0i",
            "--preset", "halfplane", "--format", "json",
        )
        _, out2, _ = run_cli(
            capsys, "bound", "--class", "rgt", "--gamma", "0.5", "--tau", "2+0i",
            "--preset", "halfplane", "--format", "json",
        )
        assert json.loads(out2)["bound"] == pytest.approx(4 * json.loads(out1)["bound"])

    def test_invalid_phi_is_diagnosed(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--custom", "0,1,1")
        assert code == 2
        assert out == ""
        assert "b1" in err

    def test_malformed_custom_triple(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--custom", "1,2")
        assert code == 2
        assert "three values" in err

    def test_json_roundtrip_idempotent(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "--preset", "parabolic", "--format", "json")
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out

    def test_human_format_mentions_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--preset", "halfplane")
        assert code == 0
        assert "bound = 1.0" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "bound", "--preset", "halfplane", "--format", "json", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["bound"] == pytest.approx(1.0)

    def test_phi_file_source(self, capsys, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"B1": 2, "B2": 2, "B3": 2, "label": "hp"}))
        code, out, _ = run_cli(capsys, "bound", "--phi-file", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == pytest.approx(1.0)
        assert payload["phi"]["label"] == "hp"

    def test_convex_class_block(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--class", "convex", "--preset", "halfplane", "--format", "json")
        assert code == 0
        assert json.loads(out)["class"] == {"kind": "convex"}

    def test_galpha_needs_alpha_g(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--class", "galpha", "--preset", "halfplane")
        assert code == 2
        assert "alpha-g" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "bound", "--preset", "parabolic", "--format", "json")
        _, out2, _ = run_cli(capsys, "bound", "--preset", "parabolic", "--format", "json")
        assert out1 == out2


class TestVerifyCommand:
    def test_halfplane_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "starlike", "--preset", "halfplane",
            "--grid", "16,8,16", "--samples", "1000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["empirical_sup"] >= 0.995
        assert payload["margin"] >= -1e-9
        assert payload["monotonicity_violations"] == 0
        assert payload["caratheodory_max"]["c2"] <= 2 + 1e-12

    def test_convex_reports_eighth(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "convex", "--preset", "halfplane",
            "--grid", "16,8,16", "--samples", "1000", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(0.125)

    def test_unsound_target_fails_with_nonzero_exit(self, capsys, monkeypatch):
        # the closed starlike form underestimates this target; the reported
        # bound covers it, but a verifier held against the closed form alone
        # sees the violation on the grid, so the check must not exit 0
        argv = (
            "verify", "--class", "starlike", "--custom", "1,-5,3",
            "--grid", "16,8,16", "--samples", "100", "--format", "json",
        )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["passed"] is True
        verify_against_closed_form(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["margin"] < 0
        assert "margin" in err

    def test_caratheodory_violation_fails(self, capsys, monkeypatch):
        monkeypatch.setattr("hankelbound.verify.check_caratheodory_bounds", lambda samples, seed: (2.0, 2.5))
        code, out, err = run_cli(
            capsys, "verify", "--preset", "halfplane", "--grid", "8,8,8", "--samples", "10", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["caratheodory_max"] == {"c2": 2.0, "c3": 2.5}
        assert err == "verification failed: caratheodory bounds\n"

    def test_tol_is_relative_at_huge_bound(self, capsys):
        # a margin of about -7e-16 of the bound is rounding, not a failure
        code, out, _ = run_cli(
            capsys, "verify", "--custom", "1e77,1,1", "--grid", "8,8,8",
            "--samples", "10", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["margin"] >= -1e-9 * payload["bound"]

    @pytest.mark.parametrize(
        "preset", [["order_alpha", "--alpha", "0.25"], ["parabolic"]], ids=["order_alpha", "parabolic"]
    )
    def test_bound_at_its_closed_form_passes_with_no_tolerance(self, capsys, preset):
        # the endpoint/vertex enumeration reads an ulp below the closed form
        # here, which the grid attains
        code, out, _ = run_cli(
            capsys, "verify", "--preset", *preset, "--class", "rgt", "--gamma", "0.5",
            "--grid", "16,8,16", "--samples", "10", "--tol", "0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["margin"] >= 0

    @pytest.mark.parametrize("shortfall, expected", [(2e-9, 1), (5e-10, 0)])
    def test_tol_is_absolute_for_order_one_bounds(self, capsys, monkeypatch, shortfall, expected):
        argv = (
            "verify", "--preset", "lemniscate", "--grid", "16,8,16",
            "--samples", "10", "--format", "json",
        )
        spec = hb.starlike(hb.preset("lemniscate"))
        sup = hb.empirical_sup(spec, grid=(16, 8, 16)).empirical_sup

        def bound_below_sup(spec):
            return dataclasses.replace(hb.second_hankel_bound(spec), bound=sup - shortfall)

        monkeypatch.setattr("hankelbound.verify.second_hankel_bound", bound_below_sup)
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected
        assert json.loads(out)["margin"] == pytest.approx(-shortfall, rel=1e-6)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_out_of_range_is_refused(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "verify", "--preset", "halfplane", "--grid", "8,8,8", "--samples", "10", "--tol", tol
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol ") and err.count("\n") == 1

    def test_bound_agrees_with_bound_command_bitwise(self, capsys):
        _, out_bound, _ = run_cli(capsys, "bound", "--preset", "lemniscate", "--format", "json")
        _, out_verify, _ = run_cli(
            capsys, "verify", "--preset", "lemniscate", "--grid", "16,8,16",
            "--samples", "100", "--format", "json",
        )
        assert json.loads(out_bound)["bound"] == json.loads(out_verify)["bound"]


class TestSweepCommand:
    def test_alpha_order_crossover(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "alpha_order", "--start", "0", "--stop", "0.9375",
            "--step", "0.0625",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["param"] == "alpha_order"
        assert [float(row["value"]) for row in rows] == [k / 16 for k in range(16)]
        for row in rows:
            alpha, bound = float(row["value"]), float(row["bound"])
            if alpha <= 0.75:
                assert row["branch"] == "caseR"
                assert bound == pytest.approx((1 - alpha) ** 2, abs=1e-12)
            else:
                assert row["branch"] == "case16P4QR"
                expected = (1 - alpha) ** 2 * (13 - 16 * (1 - alpha) ** 2) / 12
                assert bound == pytest.approx(expected, abs=1e-12)

    def test_beta_sweep_is_beta_squared(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "beta_strong", "--start", "0.125", "--stop", "1.0",
            "--step", "0.125",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        for row in rows:
            assert float(row["bound"]) == pytest.approx(float(row["value"]) ** 2, abs=1e-10)

    def test_single_point_matches_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "gamma", "--start", "0.5", "--stop", "0.5",
            "--step", "0.25", "--preset", "halfplane", "--class", "rgt",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        _, out_bound, _ = run_cli(
            capsys, "bound", "--class", "rgt", "--gamma", "0.5", "--tau", "1+0i",
            "--preset", "halfplane", "--format", "json",
        )
        assert float(rows[0]["bound"]) == json.loads(out_bound)["bound"]

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sweep", "alpha_order", "--start", "0.5", "--stop", "0.2",
            "--step", "0.1",
        )
        assert code == 2
        assert "empty sweep range" in err

    def test_header_shape(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--sweep", "alpha_g", "--start", "0", "--stop", "1", "--step", "0.5",
            "--preset", "halfplane",
        )
        assert out.splitlines()[0] == "param,value,bound,branch"

    @pytest.mark.parametrize("var, fixed", [("A", "janowski-b"), ("B", "janowski-a")])
    def test_janowski_a_sweep_needs_fixed_b(self, capsys, var, fixed):
        code, _, err = run_cli(
            capsys, "sweep", "--sweep", var, "--start", "0.2", "--stop", "0.8", "--step", "0.2"
        )
        assert code == 2
        assert fixed in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_human_format_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--sweep", "alpha_order", "--start", "0", "--stop", "0.5", "--step", "0.25",
                  "--format", "human"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: hankelbound sweep")
        assert "invalid choice: 'human'" in captured.err
        assert "Traceback" not in captured.err

    def test_oversized_sweep_rejected_promptly(self, capsys):
        # 9e8 rows: refused before any row is built
        began = time.perf_counter()
        code, out, err = run_cli(
            capsys, "sweep", "--sweep", "alpha_order", "--start", "0", "--stop", "0.9",
            "--step", "1e-9",
        )
        assert time.perf_counter() - began < 1.0
        assert code == 2
        assert out == ""
        assert "rows" in err

    @pytest.mark.parametrize("var", ["gamma", "alpha_g"])
    def test_target_is_read_once_per_sweep(self, capsys, monkeypatch, tmp_path, var):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"B1": 1.0, "B2": 0.5, "B3": 0.25}))
        calls = []
        load = hb.targets.load_phi_file
        monkeypatch.setattr(hb.targets, "load_phi_file", lambda p: calls.append(p) or load(p))
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", var, "--start", "0", "--stop", "0.9375", "--step", "0.0625",
            "--phi-file", str(path),
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 16
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "var, given",
        [
            ("alpha_order", ["--alpha", "0.9"]),
            ("gamma", ["--preset", "halfplane", "--class", "rgt", "--gamma", "0.9"]),
        ],
    )
    def test_swept_flag_is_refused(self, capsys, var, given):
        code, out, err = run_cli(
            capsys, "sweep", "--sweep", var, "--start", "0", "--stop", "0.5", "--step", "0.25", *given
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f" sets {given[-2]} " in err

    def test_phi_source_conflicts_with_phi_driven_sweep(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sweep", "alpha_order", "--start", "0", "--stop", "0.5",
            "--step", "0.25", "--preset", "halfplane",
        )
        assert code == 2
        assert "drop the phi source" in err


# class flags for a sweep; a gamma or alpha_g sweep overrides --class and
# refuses another class's flags, so it keeps only the --class token
SWEEP_CLASS_ARGS = (
    [],
    ["--class=starlike"],
    ["--class=convex"],
    ["--class=rgt", "--gamma=0.25", "--tau=0.5-1.5i"],
    ["--class=galpha", "--alpha-g=0.6"],
)
SWEEP_PHI_SOURCES = (
    ["--preset=lemniscate"],
    ["--preset=order_alpha", "--alpha=0.4"],
    ["--preset=janowski", "--janowski-a=0.5", "--janowski-b=-0.5"],
    ["--custom=1.5,0.3,-0.2"],
)


def seeded_sweep(rng: random.Random, var: str):
    """A sweep of ``var`` in JSON and, for a row's value, the ``bound`` argv
    that must give that row: the swept flag set to the value, with the class
    a gamma or alpha_g sweep forces in place of ``--class``."""
    cls = rng.choice(SWEEP_CLASS_ARGS)
    if var in ("gamma", "alpha_g"):
        cls = cls[:1]
    start, step, n = rng.uniform(0.0, 0.5), rng.uniform(0.05, 0.1), rng.randint(2, 5)
    if var == "alpha_order":
        shared, bound_only, flag = cls, ["--preset=order_alpha"], "--alpha"
    elif var == "beta_strong":
        start += 0.05
        shared, bound_only, flag = cls, ["--preset=strongly_beta"], "--beta"
    elif var == "A":
        b = -rng.uniform(0.0, 1.0)
        start = b + rng.uniform(0.05, 0.2)
        shared, bound_only, flag = [*cls, f"--janowski-b={b!r}"], ["--preset=janowski"], "--janowski-a"
    elif var == "B":
        a = rng.uniform(0.5, 1.0)
        start = -rng.uniform(0.5, 1.0)
        shared, bound_only, flag = [*cls, f"--janowski-a={a!r}"], ["--preset=janowski"], "--janowski-b"
    elif var == "gamma":
        tau = f"--tau={rng.uniform(0.25, 2.0)!r}{rng.uniform(-2.0, 2.0):+}i"
        shared, bound_only, flag = [*rng.choice(SWEEP_PHI_SOURCES), tau], ["--class=rgt"], "--gamma"
    else:
        shared, bound_only, flag = rng.choice(SWEEP_PHI_SOURCES), ["--class=galpha"], "--alpha-g"
    sweep = ["sweep", "--sweep", var, f"--start={start!r}", f"--stop={start + (n - 0.5) * step!r}",
             f"--step={step!r}", *cls, *shared, "--format", "json"]
    return sweep, n, lambda value: ["bound", *shared, *bound_only, f"{flag}={value!r}", "--format", "json"]


class TestSweepRowIsBound:
    @pytest.mark.parametrize("var", SWEEP_VARS)
    def test_each_row_equals_bound_at_its_value(self, capsys, var):
        rng = random.Random(f"sweep-row-{var}")
        for _ in range(4):
            sweep, n, bound_argv = seeded_sweep(rng, var)
            code, out, err = run_cli(capsys, *sweep)
            assert code == 0, err
            rows = json.loads(out)["rows"]
            assert len(rows) == n
            for row in rows:
                code, out, err = run_cli(capsys, *bound_argv(row["value"]))
                assert code == 0, err
                payload = json.loads(out)
                assert (row["bound"], row["branch"]) == (payload["bound"], payload["branch"]), (sweep, row)


# a valid invocation of each subcommand, run once per --format choice
FORMAT_CASES = {
    "bound": ["bound", "--preset", "halfplane"],
    "verify": ["verify", "--preset", "halfplane", "--grid", "8,8,8", "--samples", "100"],
    "sweep": ["sweep", "--sweep", "alpha_order", "--start", "0", "--stop", "0.5", "--step", "0.25"],
    "series": ["series", "--preset", "halfplane"],
}


def format_choices(command: str) -> tuple:
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(FORMAT_CASES)
    return next(a.choices for a in commands[command]._actions if a.dest == "format")


@pytest.mark.parametrize("command", sorted(FORMAT_CASES))
def test_format_choices_give_distinct_output(capsys, command):
    outputs = {}
    for fmt in format_choices(command):
        code, out, err = run_cli(capsys, *FORMAT_CASES[command], "--format", fmt)
        assert code == 0, err
        outputs[fmt] = out
    assert len(set(outputs.values())) == len(outputs), f"{command}: two --format choices print the same"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["bound", "--preset", "halfplane", "--alpha", "0.2", "--janowski-a", "0.5"], "--alpha and --janowski-a"),
        (["series", "--preset", "lemniscate", "--beta", "0.2"], "--beta"),
        (["bound", "--custom", "1,1,1", "--alpha", "0.3"], "--alpha"),
        (["sweep", "--sweep", "alpha_order", "--start", "0", "--stop", "0.5", "--step", "0.25", "--beta", "0.3"],
         "--beta"),
    ],
)
def test_stray_preset_flag_is_refused(capsys, argv, flags):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f" does not take {flags}\n")


SWEEP_HEAD = ["sweep", "--start", "0", "--stop", "0.5", "--step", "0.25"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--preset", "halfplane", "--class", "starlike", "--gamma", "0.5"],
         "--class starlike does not take --gamma"),
        (["bound", "--preset", "halfplane", "--class", "galpha", "--alpha-g", "0.5", "--tau", "2"],
         "--class galpha does not take --tau"),
        (["bound", "--preset", "halfplane", "--class", "rgt", "--alpha-g", "0.3"],
         "--class rgt does not take --alpha-g"),
        (["verify", "--preset", "halfplane", "--class", "convex", "--tau", "1+1i"],
         "--class convex does not take --tau"),
        ([*SWEEP_HEAD, "--sweep", "gamma", "--preset", "halfplane", "--alpha-g", "0.5"],
         "--class rgt does not take --alpha-g"),
        ([*SWEEP_HEAD, "--sweep", "alpha_g", "--preset", "halfplane", "--class", "rgt", "--gamma", "0.3", "--tau", "2"],
         "--class galpha does not take --gamma and --tau"),
        (["bound", "--class", "rgt", "--tau", "nan", "--preset", "halfplane"],
         "rgt needs a finite nonzero tau, got (nan+0j)"),
        (["bound", "--class", "rgt", "--tau", "1e999", "--preset", "halfplane"],
         "rgt needs a finite nonzero tau, got (inf+0j)"),
        (["bound", "--class", "rgt", "--tau", "inf", "--preset", "halfplane"],
         "rgt needs a finite nonzero tau, got (inf+0j)"),
        (["bound", "--class", "rgt", "--tau=1+infi", "--preset", "halfplane"],
         "rgt needs a finite nonzero tau, got (1+infj)"),
        (["bound", "--preset", "halfplane", "--class", "convex", "--alpha-g", "1"],
         "--class convex does not take --alpha-g"),
    ],
)
def test_stray_class_flag_is_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_cached_parser_carries_no_state(capsys):
    # a gamma sweep sets --preset, --class and --gamma on its namespace; the
    # next call, parsed by the same parser, must see none of them
    assert build_parser() is build_parser()
    code, _, err = run_cli(capsys, *SWEEP_HEAD, "--sweep", "gamma", "--preset", "halfplane", "--tau=2+1i")
    assert code == 0, err
    argv = ["bound", "--class", "starlike", "--preset", "halfplane", "--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    fresh = run_fresh("-m", "hankelbound.cli", *argv)
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert out == fresh.stdout


# bound, series, sweep and the majorant leave numpy unloaded; the verifier then loads it
NUMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import hankelbound as hb, hankelbound.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv.split()) for argv in (
        "bound --preset lemniscate", "series --preset parabolic",
        "sweep --sweep beta_strong --start 0.1 --stop 0.5 --step 0.1")]
spec = hb.starlike(hb.preset("halfplane"))
hb.majorant_surface(spec, 1.0, 0.5)
hb.verify.expand_arrays(1.0, 0.5 + 0.5j, 1j)
loaded = "numpy" in sys.modules
report = hb.empirical_sup(spec, grid=(16, 8, 16))
print(json.dumps({"codes": codes, "loaded": loaded, "sup": report.empirical_sup, "margin": report.margin,
                  "violations": hb.check_mu_monotone(spec), "loaded_after": "numpy" in sys.modules}))
"""


def test_bound_path_does_not_import_numpy():
    run = run_fresh("-c", NUMPY_FREE_SCRIPT)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] is False
    assert result["sup"] >= 0.995 and result["margin"] >= -1e-9
    assert result["violations"] == 0
    assert result["loaded_after"] is True


class TestComplexOutput:
    """A complex value is written as {re, im}: rgt's tau, and x and z of verify's argmax."""

    BOUND = ["bound", "--class", "rgt", "--gamma", "0.5", "--tau", "2+1i", "--preset", "halfplane"]
    VERIFY = ["verify", "--class", "rgt", "--gamma", "0.5", "--tau", "2+1i", "--preset", "halfplane",
              "--grid", "8,8,8", "--samples", "10"]

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, *self.BOUND, "--format", "json")
        assert json.loads(out)["class"] == {"kind": "rgt", "gamma": 0.5, "tau": {"re": 2.0, "im": 1.0}}
        _, out, _ = run_cli(capsys, *self.VERIFY, "--format", "json")
        argmax = json.loads(out)["argmax"]
        assert sorted(argmax) == ["c", "mu", "x", "z"]
        for name in ("x", "z"):
            assert sorted(argmax[name]) == ["im", "re"]
            assert all(isinstance(part, float) for part in argmax[name].values())
        assert math.hypot(argmax["x"]["re"], argmax["x"]["im"]) == pytest.approx(argmax["mu"])

    def test_human(self, capsys):
        _, out, _ = run_cli(capsys, *self.BOUND)
        lines = out.splitlines()
        at = lines.index("class.tau.re = 2.0")
        assert lines[at + 1] == "class.tau.im = 1.0"
        _, out, _ = run_cli(capsys, *self.VERIFY)
        keys = [line.split(" = ")[0] for line in out.splitlines() if line.startswith("argmax.")]
        assert keys == ["argmax.c", "argmax.mu", "argmax.x.re", "argmax.x.im", "argmax.z.re", "argmax.z.im"]


class TestSeriesCommand:
    def test_parabolic(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--preset", "parabolic", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["phi"]["B1"] == pytest.approx(0.8105694691387022)
        assert payload["series"][0] == 1
        assert len(payload["series"]) == payload["order"] + 1

    def test_halfplane(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--preset", "halfplane", "--format", "json")
        payload = json.loads(out)
        assert payload["series"][:4] == [1, 2, 2, 2]

    def test_custom_echo(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--custom", "1,0,0", "--format", "json")
        payload = json.loads(out)
        assert payload["phi"] == {"B1": 1.0, "B2": 0.0, "B3": 0.0, "label": "custom"}
        assert payload["series"][:4] == [1, 1, 0, 0]

    def test_unknown_preset_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--preset", "circle"])
        assert exc.value.code == 2


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
unit_floats = st.floats(min_value=0.0, max_value=1.0)
class_arguments = st.one_of(
    st.just(["--class", "starlike"]),
    st.just(["--class", "convex"]),
    unit_floats.map(lambda g: ["--class", "rgt", "--gamma", repr(g), "--tau", "1+0i"]),
    unit_floats.map(lambda a: ["--class", "galpha", "--alpha-g", repr(a)]),
)

# small, huge and negative: a verify's --samples, --grid axes and --seed;
# half the grids are valid, so the checks after the grid's are reached too
verify_counts = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=10**8, max_value=10**30),
    st.integers(min_value=-(10**30), max_value=-1),
)
verify_grids = st.one_of(
    st.tuples(*[st.integers(min_value=8, max_value=32)] * 3),
    st.tuples(verify_counts, verify_counts, verify_counts),
)

# a phi source, or none, and a preset's parameters, each possibly out of range
phi_sources = st.one_of(
    st.just([]),
    st.sampled_from(hb.targets.PRESET_NAMES).map(lambda name: ["--preset", name]),
    st.tuples(finite_floats, finite_floats, finite_floats).map(lambda t: ["--custom={!r},{!r},{!r}".format(*t)]),
)
preset_flags = st.lists(
    st.tuples(st.sampled_from(["--alpha", "--beta", "--janowski-a", "--janowski-b"]), unit_floats | finite_floats),
    max_size=3,
).map(lambda pairs: [f"{flag}={value!r}" for flag, value in pairs])
# a swept variable with the phi source it needs, or with any source
sweep_targets = st.one_of(
    st.tuples(st.sampled_from(["alpha_order", "beta_strong"]), st.just([])),
    st.tuples(st.just("A"), st.just(["--janowski-b=-0.5"])),
    st.tuples(st.just("B"), st.just(["--janowski-a=0.75"])),
    st.tuples(st.sampled_from(["gamma", "alpha_g"]), phi_sources.filter(bool)),
    st.tuples(st.sampled_from(SWEEP_VARS), phi_sources),
)
# start, stop, step: a few dozen rows, mostly of valid parameters, or any
# finite floats, which are mostly refused, empty or over the row cap
sweep_ranges = st.one_of(
    st.tuples(st.floats(-0.25, 1.0), st.floats(0.0, 1.25), st.floats(1 / 32, 1.0)),
    st.tuples(finite_floats, finite_floats, finite_floats),
)


class TestFailureContract:
    """Every finite input exits 0 with a finite bound or 2 with a diagnosis."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--custom", "1e300,1,1"],
            ["bound", "--custom", "1e-12,1e200,1e200"],
            ["bound", "--class", "rgt", "--preset", "halfplane", "--tau", "1e200+0i"],
            ["verify", "--custom", "1e150,1,1", "--grid", "8,8,8", "--samples", "10"],
        ],
    )
    def test_overflow_is_diagnosed(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--class", "rgt", "--custom", "1,1,1", "--tau", "1e-170"],
             "bound of rgt(gamma=0, tau=1e-170+0j) underflows at this target's magnitude"),
            (["bound", "--class", "convex", "--custom", ",".join(map(repr, REGION_OVERFLOW_TARGET))],
             "bound of convex is not finite at this target's magnitude"),
            (["sweep", "--sweep", "alpha_order", "--start", "nan", "--stop", "1", "--step", "0.1"],
             "--start, --stop and --step must be finite"),
            (["sweep", "--sweep", "beta_strong", "--start", "0.1", "--stop", "inf", "--step", "0.1"],
             "--start, --stop and --step must be finite"),
            (["sweep", "--sweep", "gamma", "--start", "0", "--stop", "1", "--step", "0.5"],
             "sweep variable gamma needs a phi source"),
            (["bound", "--phi-file", "{list_file}"], "must be a JSON object"),
            (["verify", "--preset", "halfplane", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
            (["bound", "--custom", "1,1e200,1e308"], "bound of starlike is not finite at this target's magnitude"),
            (["bound", "--class", "rgt", "--custom", "1,1,1", "--tau", "1e-155"],
             "bound of rgt(gamma=0, tau=1e-155+0j) underflows at this target's magnitude"),
            (["verify", "--class", "rgt", "--custom", "1,1,1", "--tau", "1e-155", "--grid", "8,8,8", "--samples", "10"],
             "bound of rgt(gamma=0, tau=1e-155+0j) underflows at this target's magnitude"),
        ],
        ids=["tiny_tau", "region_overflows", "nan_start", "inf_stop", "gamma_without_phi", "phi_file_list",
             "negative_seed", "nan_quadratic", "subnormal_tau", "subnormal_tau_verify"],
    )
    def test_refusal_is_one_error_line(self, capsys, tmp_path, argv, message):
        list_file = tmp_path / "phi.json"
        list_file.write_text("[2, 2, 2]")
        code, out, err = run_cli(capsys, *(arg.format(list_file=list_file) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--preset", "halfplane", "--grid", "8,8"], "argument --grid: expected n_c,n_r,n_theta, got '8,8'"),
            (["bound", "--class", "rgt", "--preset", "halfplane", "--tau", "abc"],
             "argument --tau: cannot parse complex number from 'abc'"),
        ],
    )
    def test_flag_refusal_prints_the_parsers_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.endswith(f"error: {message}\n")
        assert "invalid" not in err

    @pytest.mark.parametrize(
        "work", [["--samples", "1000000000"], ["--grid", "100000,100000,100000"], ["--grid", "8,512,4096"]]
    )
    def test_oversized_verify_is_refused_promptly(self, capsys, work):
        # a 7.45 GiB draw, a 149 GiB grid and a 2^24-point grid whose 2^21
        # points per c need about 700 MB: refused before any is built
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--preset", "halfplane", "--class", "starlike", *work)
        assert time.perf_counter() - began < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=60, deadline=None)
    @given(verify_counts, verify_grids, verify_counts)
    def test_every_verify_workload_is_bounded(self, samples, grid, seed):
        argv = ["verify", "--preset", "halfplane", f"--samples={samples}", "--grid={},{},{}".format(*grid),
                f"--seed={seed}"]
        out, err = io.StringIO(), io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - began < 5.0
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(sweep_targets, sweep_ranges, preset_flags, class_arguments)
    @example(("A", ["--janowski-b=-0.5"]), (0.0, 1.0, 0.25), [], ["--class", "starlike"])
    @example(("B", ["--janowski-a=0.75"]), (-1.0, 0.5, 0.25), [], ["--class", "convex"])
    def test_every_sweep_is_bounded(self, target, sweep_range, param_args, class_args):
        var, phi_args = target
        argv = ["sweep", f"--sweep={var}", "--start={!r}".format(sweep_range[0]),
                "--stop={!r}".format(sweep_range[1]), "--step={!r}".format(sweep_range[2]),
                *phi_args, *param_args, *class_args]
        out, err = io.StringIO(), io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        # a sweep at the 100,000-row cap takes about 15 s on a 2-CPU Xeon
        assert time.perf_counter() - began < 30.0
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(phi_sources.filter(bool), preset_flags, st.sampled_from(["human", "json"]))
    def test_every_series_is_bounded(self, phi_args, param_args, fmt):
        out, err = io.StringIO(), io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["series", *phi_args, *param_args, f"--format={fmt}"])
        assert time.perf_counter() - began < 5.0
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=400, deadline=None)
    @given(class_arguments, finite_floats, finite_floats, finite_floats)
    def test_every_finite_custom_triple(self, class_args, b1, b2, b3):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["bound", f"--custom={b1!r},{b2!r},{b3!r}", *class_args, "--format", "json"])
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert math.isfinite(json.loads(out.getvalue())["bound"])
