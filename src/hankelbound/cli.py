"""Command line front end: bounds, grid verification, sweeps, series.

Data goes to stdout (or --output), diagnostics to stderr.  Exit status is 0
only when every requested check passes: 2 flags bad input (a target whose
bound overflows included), 1 flags a failed verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import bounds, classes, targets, verify

DEFAULT_TOL = 1e-9
MAX_SWEEP_ROWS = 100_000
# swept variable -> (the preset each row builds, or None for the fixed phi
# source; the flag each row sets; the class it forces, or None for --class)
_SWEEPS = {
    "alpha_order": ("order_alpha", "alpha", None),
    "beta_strong": ("strongly_beta", "beta", None),
    "gamma": (None, "gamma", "rgt"),
    "alpha_g": (None, "alpha_g", "galpha"),
    "A": ("janowski", "janowski_a", None),
    "B": ("janowski", "janowski_b", None),
}
SWEEP_VARS = tuple(_SWEEPS)
# preset parameter -> the flag that sets it
_PARAM_FLAGS = {"alpha": "alpha", "beta": "beta", "a": "janowski_a", "b": "janowski_b"}
# class parameter -> the flag that sets it, and the value of an unset flag where it has one
_CLASS_FLAGS = {"gamma": "gamma", "tau": "tau", "alpha": "alpha_g"}
_CLASS_DEFAULTS = {"gamma": 0.0, "tau": 1 + 0j}


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (or plain reals, inf and nan included) into a complex number."""
    cleaned = text.strip().replace(" ", "")
    cleaned = cleaned[:-1] + "j" if cleaned.endswith("i") else cleaned
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number from {text!r}") from exc


def _parse_triple(text: str, convert, expected: str) -> tuple:
    """Three comma-separated values of ``text``, each through ``convert``."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected {expected}, got {text!r}")
    return tuple(convert(p) for p in parts)


def _flag_type(parse):
    """``parse`` as an argparse ``type`` whose ValueError message is the one printed."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


def _add_phi_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--preset", choices=targets.PRESET_NAMES, help="named target")
    group.add_argument("--custom", metavar="B1,B2,B3", help="explicit coefficient triple")
    group.add_argument("--phi-file", metavar="PATH", help="JSON file with keys B1, B2, B3, label")
    parser.add_argument("--alpha", type=float, help="order parameter for --preset order_alpha")
    parser.add_argument("--beta", type=float, help="order parameter for --preset strongly_beta")
    parser.add_argument("--janowski-a", type=float, help="A for --preset janowski")
    parser.add_argument("--janowski-b", type=float, help="B for --preset janowski")


def _add_class_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--class", dest="kind", choices=classes.KINDS, default="starlike", help="function class"
    )
    parser.add_argument("--gamma", type=float, help="gamma in [0,1] for --class rgt")
    parser.add_argument(
        "--tau", type=_flag_type(parse_complex), help="finite nonzero complex tau for --class rgt, e.g. 2+0i"
    )
    parser.add_argument("--alpha-g", type=float, help="alpha in [0,1] for --class galpha")


def _flag_params(args, source: str, names, flags: dict, defaults: dict) -> dict:
    """The parameters ``names`` of ``source``, each from its flag in ``flags`` or else from ``defaults``;
    one with neither is refused, and so is any set flag of a parameter that ``source`` does not take."""
    params = {name: getattr(args, flags[name]) for name in names}
    params = {name: defaults.get(name) if value is None else value for name, value in params.items()}
    if None in params.values():
        raise ValueError(f"{source} needs {_flag_list(flags[name] for name in names)}")
    stray = [flag for name, flag in flags.items() if name not in names and getattr(args, flag) is not None]
    if stray:
        raise ValueError(f"{source} does not take {_flag_list(stray)}")
    return params


def _flag_list(flags) -> str:
    return " and ".join("--" + flag.replace("_", "-") for flag in flags)


def _preset_params(args) -> dict:
    """The parameters of ``--preset`` taken from their own flags; any other set preset flag is refused."""
    source = f"--preset {args.preset}" if args.preset else ("--custom" if args.custom else "--phi-file")
    return _flag_params(args, source, targets.PRESETS[args.preset][1] if args.preset else (), _PARAM_FLAGS, {})


def _build_phi(args) -> targets.PhiCoefficients:
    params = _preset_params(args)
    if args.preset is not None:
        return targets.preset(args.preset, **params)
    if args.custom is not None:
        b1, b2, b3 = _parse_triple(args.custom, float, "B1,B2,B3 with three values")
        return targets.custom(b1, b2, b3)
    return targets.load_phi_file(args.phi_file)


def _build_spec(args, phi: targets.PhiCoefficients) -> classes.ClassSpec:
    params = _flag_params(args, f"--class {args.kind}", classes.CLASS_PARAMS[args.kind], _CLASS_FLAGS, _CLASS_DEFAULTS)
    return classes.ClassSpec(args.kind, phi, **params)


def _phi_payload(phi: targets.PhiCoefficients) -> dict:
    return {"B1": phi.b1, "B2": phi.b2, "B3": phi.b3, "label": phi.label}


def _bound_payload(result: bounds.BoundResult) -> dict:
    prof, spec = result.profile, result.spec
    return {
        "class": {"kind": spec.kind, **{name: getattr(spec, name) for name in classes.CLASS_PARAMS[spec.kind]}},
        "phi": _phi_payload(spec.phi),
        "bound": result.bound,
        "branch": result.branch,
        "P": prof.P,
        "Q": prof.Q,
        "R": prof.R,
        "T": prof.T,
        "closed_form": result.closed_form_value,
    }


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _complex_parts(value) -> dict:
    """A complex ``value`` as ``{re, im}``; the ``default`` of ``json.dumps``."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_payload(payload: dict, args) -> None:
    """Write ``payload`` to ``args.output``: sorted, indented JSON for
    ``--format json``, otherwise one ``key.subkey = value`` line per leaf.
    A complex leaf is written as its two parts, ``re`` then ``im``."""
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True, default=_complex_parts) + "\n", args.output)
        return
    lines = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, complex):
            value = _complex_parts(value)
        if isinstance(value, dict):
            for key in value:
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        else:
            lines.append(f"{prefix} = {value}")

    walk("", payload)
    _emit("\n".join(lines) + "\n", args.output)


def cmd_bound(args) -> int:
    phi = _build_phi(args)
    result = bounds.second_hankel_bound(_build_spec(args, phi))
    _emit_payload(_bound_payload(result), args)
    return 0


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol!r}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    phi = _build_phi(args)
    spec = _build_spec(args, phi)
    payload = _bound_payload(bounds.second_hankel_bound(spec))
    report = verify.empirical_sup(spec, grid=args.grid)
    max_c2, max_c3 = verify.check_caratheodory_bounds(args.samples, seed=args.seed)
    payload.update(
        {
            "empirical_sup": report.empirical_sup,
            "margin": report.margin,
            "argmax": {"c": report.argmax.c, "mu": report.argmax.mu, "x": report.argmax.x, "z": report.argmax.z},
            "monotonicity_violations": report.monotonicity_violations,
            "grid": list(report.grid_sizes),
            "caratheodory_max": {"c2": max_c2, "c3": max_c3},
            "seed": args.seed,
        }
    )
    # relative to the bound past 1, so rounding at a huge target is no failure
    tol = args.tol * max(1.0, abs(report.bound))
    checks = {
        "margin": report.margin >= -tol,
        "mu monotonicity": report.monotonicity_violations == 0,
        "caratheodory bounds": max(max_c2, max_c3) <= 2.0 + 1e-12,
    }
    payload["passed"] = all(checks.values())
    _emit_payload(payload, args)
    if not payload["passed"]:
        print(f"verification failed: {', '.join(name for name, ok in checks.items() if not ok)}", file=sys.stderr)
        return 1
    return 0


def _sweep_values(args) -> list[float]:
    start, stop, step = args.start, args.stop, args.step
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("--start, --stop and --step must be finite")
    if step <= 0:
        raise ValueError("--step must be positive")
    last = stop + 1e-12
    span = (last - start) / step
    if span >= MAX_SWEEP_ROWS:
        raise ValueError(f"sweep has more than {MAX_SWEEP_ROWS} rows; raise --step")
    # rows by index, not by accumulation; the filter settles the last one
    values = [round(start + k * step, 12) for k in range(math.floor(span) + 2) if start + k * step <= last]
    if not values:
        raise ValueError(f"empty sweep range: start={start}, stop={stop}, step={step}")
    return values


def cmd_sweep(args) -> int:
    var = args.sweep
    preset, flag, kind = _SWEEPS[var]
    if preset and (args.preset or args.custom or args.phi_file):
        raise ValueError(f"sweep variable {var} builds its own target; drop the phi source")
    if not (preset or args.preset or args.custom or args.phi_file):
        raise ValueError(f"sweep variable {var} needs a phi source")
    if getattr(args, flag) is not None:
        raise ValueError(f"sweep variable {var} sets {_flag_list([flag])} on every row; drop it")
    values = _sweep_values(args)
    phi = None if preset else _build_phi(args)
    args.preset, args.kind = preset or args.preset, kind or args.kind
    rows = []
    # each row is the `bound` of its flag value
    for value in values:
        setattr(args, flag, value)
        result = bounds.second_hankel_bound(_build_spec(args, phi or _build_phi(args)))
        rows.append({"param": var, "value": value, "bound": result.bound, "branch": result.branch})
    if args.format == "json":
        _emit_payload({"sweep": var, "rows": rows}, args)
    else:
        lines = [f"{r['param']},{r['value']!r},{r['bound']!r},{r['branch']}\n" for r in rows]
        _emit("param,value,bound,branch\n" + "".join(lines), args.output)
    return 0


def cmd_series(args) -> int:
    phi = _build_phi(args)
    if args.preset is not None:
        series = targets.preset_series(args.preset, **_preset_params(args))
    else:
        series = targets.phi_to_series(phi)
    coeffs = [c.real for c in series.coeffs]
    _emit_payload({"phi": _phi_payload(phi), "series": coeffs, "order": series.order}, args)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="hankelbound",
        description="Bounds for the second Hankel determinant |a2 a4 - a3^2| "
        "of analytic function classes defined by subordination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_class: bool = True) -> None:
        _add_phi_arguments(p)
        if with_class:
            _add_class_arguments(p)
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")

    p_bound = sub.add_parser("bound", help="upper bound for one class and target")
    common(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="brute-force grid check against the bound")
    common(p_verify)
    p_verify.add_argument(
        "--grid",
        type=_flag_type(functools.partial(_parse_triple, convert=int, expected="n_c,n_r,n_theta")),
        default=verify.DEFAULT_GRID,
        metavar="NC,NR,NT",
        help="points along c; NR rings x NT angles cross-check the reported c (x and z are maximised exactly); "
        f"evaluates 4 NC points, then 1 + (NR - 1) NT ring points; 4 NC and NR * NT each at most {verify.MAX_SLICE_POINTS}",
    )
    p_verify.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="allowed negative margin, finite and at least 0, relative to the bound when the bound exceeds 1",
    )
    p_verify.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p_verify.add_argument(
        "--samples",
        type=int,
        default=100_000,
        help=f"coefficient-bound seeded points: (c, x) pairs crossed with z; at most {verify.MAX_SAMPLES}",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="bound along a parameter range, CSV by default")
    _add_phi_arguments(p_sweep, required=False)
    _add_class_arguments(p_sweep)
    p_sweep.add_argument(
        "--sweep", choices=SWEEP_VARS, required=True, help="swept variable; gamma forces --class rgt, alpha_g --class galpha"
    )
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--output", default="-", help="output path, '-' for stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_series = sub.add_parser("series", help="print a target's coefficients and working series")
    common(p_series, with_class=False)
    p_series.set_defaults(func=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
