"""The benchmark's three workloads: inputs from the seed, the timed call, the check.

A workload hands the harness rounds of operations (``next_round``), runs
one operation (``run``, the only timed part) and checks its output against
``refs`` (``check``), which returns ``(ok, units)``: ``ok`` False marks a
failed operation, ``units`` is the work it completed in the workload's
unit.  Wrong outputs go to the ``errors`` list and make the run incorrect.
Inputs come only from ``random.Random(seed)``; the program receives them
as arguments, through its public functions or its command line.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

import refs
import spans

KINDS = ("starlike", "convex", "rgt", "galpha")
FACTORY = {"starlike": "starlike", "convex": "convex", "rgt": "r_gamma_tau", "galpha": "g_alpha"}
PRESETS = ("halfplane", "order_alpha", "strongly_beta", "lemniscate", "parabolic", "janowski")
DOUBLED_GRID = (128, 64, 128)
DEFAULT_GRID = spans.DEFAULT_GRID
CARATHEODORY_SAMPLES = 100_000


def load_program(root: Path):
    """Import hankelbound from ``root/src`` and refuse any other copy."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    modules = spans.program_modules()
    found = Path(modules.cli.__file__).resolve()
    if Path(src).resolve() not in found.parents:
        raise RuntimeError(f"imported hankelbound from {found}, not from {src}")
    return modules


def program_caches() -> list:
    """Every functools cache at a module attribute of the package."""
    found = {}
    for name, module in sys.modules.items():
        if name == "hankelbound" or name.startswith("hankelbound."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def class_params(rng: random.Random, kind: str) -> dict:
    if kind == "rgt":
        return {"gamma": rng.uniform(0.0, 1.0), "tau": random_tau(rng)}
    if kind == "galpha":
        return {"alpha": rng.uniform(0.0, 1.0)}
    return {}


def random_tau(rng: random.Random) -> complex:
    """A tau with |tau| >= 0.25 whose parts print exactly in 3 decimals."""
    modulus, angle = rng.uniform(0.25, 2.0), rng.uniform(0.0, 2.0 * math.pi)
    tau = complex(round(modulus * math.cos(angle), 3), round(modulus * math.sin(angle), 3))
    return tau if abs(tau) >= 0.25 else complex(0.25, tau.imag)


def blaschke_point(rng: random.Random) -> complex:
    return cmath.rect(rng.uniform(0.0, 0.95), rng.uniform(0.0, 2.0 * math.pi))


def preset_params(rng: random.Random, name: str) -> dict:
    if name == "order_alpha":
        return {"alpha": rng.uniform(0.0, 0.95)}
    if name == "strongly_beta":
        return {"beta": rng.uniform(0.05, 1.0)}
    if name == "janowski":
        a = rng.uniform(-0.5, 1.0)
        return {"a": a, "b": rng.uniform(-1.0, a - 0.05)}
    return {}


def tau_text(tau: complex) -> str:
    return f"{tau.real!r}{tau.imag:+}i"


def phi_args(preset: str, params: dict) -> list[str]:
    args = ["--preset", preset]
    if preset == "order_alpha":
        args += ["--alpha", repr(params["alpha"])]
    elif preset == "strongly_beta":
        args += ["--beta", repr(params["beta"])]
    elif preset == "janowski":
        args += [f"--janowski-a={params['a']!r}", f"--janowski-b={params['b']!r}"]
    return args


def class_args(kind: str, cp: dict) -> list[str]:
    args = ["--class", kind]
    if kind == "rgt":
        args += ["--gamma", repr(cp["gamma"]), f"--tau={tau_text(cp['tau'])}"]
    elif kind == "galpha":
        args += ["--alpha-g", repr(cp["alpha"])]
    return args


class Workload:
    modules = None
    TAIL_PERCENTILE: float  # latency_tail_ms; fixed per workload, see bench/README.md

    def __init__(self, seed: int, root: Path) -> None:
        self.root = root
        self.rng = random.Random(seed)
        self.tightness_max = 0.0  # largest bound / empirical_sup seen

    def build_spec(self, kind: str, phi, cp: dict):
        """A ClassSpec through the class's factory, looked up at call time."""
        return getattr(self.modules.classes, FACTORY[kind])(phi, **cp)


class BoundStream(Workload):
    """Batches of second_hankel_bound queries on seeded custom triples."""

    unit = "queries"
    BATCH = 1024
    TAIL_PERCENTILE = 95.0

    def setup(self) -> None:
        self.modules = load_program(self.root)
        warm = self.next_round()[0]
        self.check(warm, self.run(warm), [])

    def _query(self):
        kind = KINDS[self.rng.randrange(4)]
        phi = (self.rng.uniform(0.05, 3.0), self.rng.uniform(-3.0, 3.0), self.rng.uniform(-3.0, 3.0))
        return kind, phi, class_params(self.rng, kind), blaschke_point(self.rng)

    def next_round(self):
        return [[self._query() for _ in range(self.BATCH)]]

    def run(self, batch):
        targets, bounds = self.modules.targets, self.modules.bounds
        return [
            bounds.second_hankel_bound(self.build_spec(kind, targets.custom(*phi), cp)).bound
            for kind, phi, cp, _ in batch
        ]

    def check(self, batch, out, errors):
        for (kind, phi, cp, a), bound in zip(batch, out, strict=True):
            refs.check_bound(errors, f"bound_stream {kind}{phi} {cp}", bound, kind, phi, a, cp)
        return True, len(batch)


class SweepPresets(Workload):
    """In-process `hankelbound sweep` runs; half repeat an earlier sweep."""

    unit = "sweep rows"
    TAIL_PERCENTILE = 99.0
    VARS = ("alpha_order", "beta_strong", "A", "B", "gamma", "alpha_g")
    # Every EPOCH rounds, outside the timed region, the program's caches are
    # emptied and repeats start over from the sweeps made since.  The preset
    # cache never evicts, so without this the memory held would follow the
    # number of sweeps a run completes, that is the program's speed; with it
    # a run holds at most EPOCH * 6 fresh sweeps' parameters at a time.
    EPOCH = 16

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.recent: list[dict] = []
        self.rounds = 0

    def setup(self) -> None:
        self.modules = load_program(self.root)
        self.caches = program_caches()
        for op in self.next_round():
            self.check(op, self.run(op), [])

    def _fresh_sweep(self, var: str) -> dict:
        rng = self.rng
        n = rng.randint(12, 24)
        preset, params, fixed = None, {}, {}
        if var in ("alpha_order", "beta_strong"):
            start = rng.uniform(0.0, 0.5) if var == "alpha_order" else rng.uniform(0.05, 0.5)
            step = rng.uniform(0.005, 0.02)
        elif var == "A":
            fixed = {"b": rng.uniform(-1.0, 0.0)}
            start = fixed["b"] + rng.uniform(0.05, 0.2)
            step = (1.0 - start) * rng.uniform(0.5, 0.95) / (n - 1)
        elif var == "B":
            fixed = {"a": rng.uniform(0.0, 1.0)}
            start = -1.0 + rng.uniform(0.0, 0.2)
            step = (fixed["a"] - 0.05 - start) * rng.uniform(0.5, 0.95) / (n - 1)
        else:  # gamma, alpha_g: the class parameter runs over a preset target
            start = rng.uniform(0.0, 0.3)
            step = (1.0 - start) * rng.uniform(0.5, 0.95) / (n - 1)
            preset = PRESETS[rng.randrange(len(PRESETS))]
            params = preset_params(rng, preset)
        argv = ["sweep", "--sweep", var, f"--start={start!r}", f"--stop={start + (n - 0.5) * step!r}",
                f"--step={step!r}", "--format", "json"]
        if var in ("gamma", "alpha_g"):
            kind = "rgt" if var == "gamma" else "galpha"
            cp = {"tau": random_tau(rng)} if var == "gamma" else {}
            argv += phi_args(preset, params)
            if var == "gamma":
                argv += ["--class", "rgt", f"--tau={tau_text(cp['tau'])}"]
        else:
            kind = KINDS[rng.randrange(4)]
            cp = class_params(rng, kind)
            argv += class_args(kind, cp)
            if "b" in fixed:
                argv.append(f"--janowski-b={fixed['b']!r}")
            if "a" in fixed:
                argv.append(f"--janowski-a={fixed['a']!r}")
        op = {"argv": tuple(argv), "var": var, "start": start, "step": step, "n": n, "kind": kind,
              "cp": cp, "preset": preset, "params": params, "fixed": fixed, "a": blaschke_point(rng)}
        self.recent.append(op)
        return op

    def next_round(self):
        """Six fresh sweeps, one per variable, each followed by a repeat of a
        fresh sweep of this epoch: a fixed half of the sweeps reuse earlier values."""
        if self.rounds % self.EPOCH == 0:
            for cache in self.caches:
                cache.cache_clear()
            self.recent.clear()
        self.rounds += 1
        order = list(self.VARS)
        self.rng.shuffle(order)
        ops = []
        for var in order:
            ops.append(self._fresh_sweep(var))
            ops.append(self.recent[self.rng.randrange(len(self.recent))])
        return ops

    def run(self, op):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = self.modules.cli.main(list(op["argv"]))
        return status, buffer.getvalue()

    def _row_target(self, op, value):
        """kind, phi, class parameters, preset and its parameters of one row."""
        var, kind, cp = op["var"], op["kind"], op["cp"]
        if var == "alpha_order":
            return kind, refs.preset_phi("order_alpha", alpha=value), cp, "order_alpha", {"alpha": value}
        if var == "beta_strong":
            return kind, refs.preset_phi("strongly_beta", beta=value), cp, "strongly_beta", {"beta": value}
        if var in ("A", "B"):
            params = {"a": value, **op["fixed"]} if var == "A" else {"b": value, **op["fixed"]}
            return kind, refs.preset_phi("janowski", **params), cp, "janowski", params
        phi = refs.preset_phi(op["preset"], **op["params"])
        cp = {**cp, "gamma": value} if var == "gamma" else {"alpha": value}
        return kind, phi, cp, op["preset"], op["params"]

    def check(self, op, out, errors):
        status, text = out
        if status != 0:
            return False, 0
        digest = hashlib.sha256(text.encode()).hexdigest()
        if op.get("digest") == digest:  # same output as a run that passed the check
            return True, op["n"]
        label = "sweep " + " ".join(op["argv"][1:])
        payload = json.loads(text)
        rows = payload["rows"]
        if payload["sweep"] != op["var"] or len(rows) != op["n"]:
            errors.append(f"{label}: {len(rows)} rows of {payload['sweep']}, expected {op['n']}")
            return True, 0
        before = len(errors)
        for k, row in enumerate(rows):
            value = row["value"]
            if row["param"] != op["var"] or abs(value - (op["start"] + k * op["step"])) > 1e-9:
                errors.append(f"{label}: row {k} is {row['param']}={value!r}")
                continue
            kind, phi, cp, preset, params = self._row_target(op, value)
            refs.check_bound(errors, f"{label} row {k}", row["bound"], kind, phi, op["a"], cp, preset, params)
        if len(errors) == before:
            op["digest"] = digest
        return True, op["n"]


class VerifyCatalogue(Workload):
    """empirical_sup plus check_caratheodory_bounds, as `hankelbound verify`
    calls them, over every preset x class pair."""

    unit = "verifications"
    ROUND = 8  # the last operation of each round uses the doubled grid
    TAIL_PERCENTILE = 75.0  # below the doubled-grid eighth of the operations

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.queue: list[dict] = []

    def setup(self) -> None:
        self.modules = load_program(self.root)
        warm = self._op(0)
        self.check(warm, self.run(warm), [])

    def _op(self, index_in_round: int) -> dict:
        if not self.queue:
            pairs = [(p, k) for p in PRESETS for k in KINDS]
            self.rng.shuffle(pairs)
            self.queue = [{"preset": p, "kind": k} for p, k in pairs]
        op = self.queue.pop()
        rng = self.rng
        op["params"] = preset_params(rng, op["preset"])
        op["cp"] = class_params(rng, op["kind"])
        op["grid"] = DOUBLED_GRID if index_in_round == self.ROUND - 1 else DEFAULT_GRID
        op["seed"] = rng.randrange(2**31)
        op["a"] = blaschke_point(rng)
        op["spec"] = self.build_spec(op["kind"], self.modules.targets.preset(op["preset"], **op["params"]), op["cp"])
        return op

    def next_round(self):
        return [self._op(i) for i in range(self.ROUND)]

    def run(self, op):
        verify = self.modules.verify
        report = verify.empirical_sup(op["spec"], op["grid"])
        return report, verify.check_caratheodory_bounds(CARATHEODORY_SAMPLES, op["seed"])

    def check(self, op, out, errors):
        report, (max_c2, max_c3) = out
        kind, cp = op["kind"], op["cp"]
        phi = refs.preset_phi(op["preset"], **op["params"])
        label = f"verify {kind} {cp} x {op['preset']}{op['params']} grid {op['grid']}"
        if tuple(report.grid_sizes) != op["grid"]:
            errors.append(f"{label}: report covers grid {report.grid_sizes}")
        refs.check_verification(errors, label, report.empirical_sup, report.bound,
                                report.monotonicity_violations, max_c2, max_c3, kind, phi, cp)
        refs.check_bound(errors, label, report.bound, kind, phi, op["a"], cp, op["preset"], op["params"])
        self.tightness_max = max(self.tightness_max, report.bound / report.empirical_sup)
        return True, 1


WORKLOADS = {
    "bound_stream": BoundStream,
    "sweep_presets": SweepPresets,
    "verify_catalogue": VerifyCatalogue,
}
