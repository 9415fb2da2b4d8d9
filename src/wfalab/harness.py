"""Sequence generators, the batch experiment runner, and report emission.

Batches are fully deterministic: each trial derives its own generator seed
from the base seed, a worker runs one trial's algorithms in lockstep and
returns their traces in config order, results come back in trial order,
numbers are serialized as exact "p/q" strings, and float approximations use
a fixed format.  Running the same config twice produces byte-identical
files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Tuple, Union

from .algorithms import AlgorithmConfig, RunTrace, StepRecord, run, run_all
from .errors import ConfigError, ExactnessError, WfalabError
from .exact import frac
from .metric import (FiniteMatrix, ProductPoint, RealLine, Scaled, idx,
                     point_to_json, pt)
from .offline import MAX_ORACLE_REQUESTS, brute_force_opt
from .potential import PotentialConfig, potential_for, potential_from_json
from .problem import Instance, RequestPoint, request

TRIAL_SEED_STRIDE = 1_000_003

SUMMARY_COLUMNS = [
    "generator", "seed", "algorithm", "lambda", "n", "algCost", "optCost",
    "ratio", "nablaTotal", "nablaOverOpt", "minPhiIncreaseOverNabla",
    "lemmaFailures", "algCostApprox", "optCostApprox", "ratioApprox",
    "nablaTotalApprox", "nablaOverOptApprox",
    "minPhiIncreaseOverNablaApprox",
]

GENERATOR_KINDS = ("example", "uniform_random", "random_walk", "orthogonal",
                   "finite_uniform", "weighted_line")


def uniform_metric(size: int) -> FiniteMatrix:
    """Uniform finite metric: distance 1 between any two distinct points."""
    return FiniteMatrix(tuple(tuple(Fraction(0 if i == j else 1)
                                    for j in range(size))
                              for i in range(size)))


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one instance family.

    kind selects the family; the other fields apply per kind: m for the
    straight-line example, n plus coord_range for the random plane kinds,
    step_range for the walk, size for uniform finite components, and the
    two weights for weighted lines.
    """

    kind: str
    m: int = 0
    n: int = 0
    coord_range: int = 8
    step_range: int = 2
    size: int = 4
    weight_x: Fraction = Fraction(1)
    weight_y: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        # type() rather than isinstance: a bool is not a count.
        for name in ("m", "n", "coord_range", "step_range", "size"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an int, got {value!r}")
        object.__setattr__(self, "weight_x", frac(self.weight_x))
        object.__setattr__(self, "weight_y", frac(self.weight_y))
        if self.kind == "example":
            if self.m < 1:
                raise ConfigError("the example generator needs m >= 1")
        else:
            if self.n < 1:
                raise ConfigError(f"generator {self.kind} needs n >= 1")
        if self.kind in ("uniform_random", "orthogonal", "weighted_line"):
            if self.coord_range < 1:
                raise ConfigError("coordinate range must be at least 1")
        if self.kind == "random_walk" and self.step_range < 1:
            raise ConfigError("step range must be at least 1")
        if self.kind == "finite_uniform" and self.size < 2:
            raise ConfigError("finite components need at least 2 points")
        if self.kind == "weighted_line" and (self.weight_x <= 0
                                             or self.weight_y <= 0):
            raise ConfigError("axis weights must be positive")

    @property
    def label(self) -> str:
        if self.kind == "example":
            return f"example(m={self.m})"
        if self.kind == "uniform_random":
            return f"uniform_random(n={self.n},range={self.coord_range})"
        if self.kind == "random_walk":
            return f"random_walk(n={self.n},step={self.step_range})"
        if self.kind == "orthogonal":
            return f"orthogonal(n={self.n},range={self.coord_range})"
        if self.kind == "finite_uniform":
            return f"finite_uniform(k={self.size},n={self.n})"
        return (f"weighted_line({self.weight_x},{self.weight_y},"
                f"n={self.n},range={self.coord_range})")


def trial_seed(seed: int, trial: int) -> int:
    return seed * TRIAL_SEED_STRIDE + trial


def _quarter(rng, bound: int) -> Fraction:
    """Quarter-integer rational uniform on [-bound, bound]."""
    return Fraction(rng.randint(-4 * bound, 4 * bound), 4)


def generate(gen: GeneratorConfig, seed: int, trial: int = 0) -> Instance:
    """Deterministic instance for (generator, seed, trial)."""
    import random

    rng = random.Random(trial_seed(seed, trial))
    if gen.kind == "example":
        reqs = tuple(request(i, 2) for i in range(1, gen.m + 1))
        return Instance(RealLine(), RealLine(), pt(0, 0), reqs)
    if gen.kind == "uniform_random":
        reqs = tuple(request(_quarter(rng, gen.coord_range),
                             _quarter(rng, gen.coord_range))
                     for _ in range(gen.n))
        return Instance(RealLine(), RealLine(), pt(0, 0), reqs)
    if gen.kind == "random_walk":
        x = y = Fraction(0)
        reqs = []
        for _ in range(gen.n):
            x += _quarter(rng, gen.step_range)
            y += _quarter(rng, gen.step_range)
            reqs.append(request(x, y))
        return Instance(RealLine(), RealLine(), pt(0, 0), tuple(reqs))
    if gen.kind == "orthogonal":
        x = y = Fraction(0)
        reqs = []
        for _ in range(gen.n):
            if rng.randrange(2):
                y = _quarter(rng, gen.coord_range)
            else:
                x = _quarter(rng, gen.coord_range)
            reqs.append(request(x, y))
        return Instance(RealLine(), RealLine(), pt(0, 0), tuple(reqs))
    if gen.kind == "finite_uniform":
        space = uniform_metric(gen.size)
        reqs = tuple(RequestPoint(idx(rng.randrange(gen.size)),
                                  idx(rng.randrange(gen.size)))
                     for _ in range(gen.n))
        return Instance(space, space, ProductPoint(idx(0), idx(0)), reqs)
    space_x = Scaled(RealLine(), gen.weight_x)
    space_y = Scaled(RealLine(), gen.weight_y)
    reqs = tuple(request(_quarter(rng, gen.coord_range),
                         _quarter(rng, gen.coord_range))
                 for _ in range(gen.n))
    return Instance(space_x, space_y, pt(0, 0), reqs)


_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", list: "array"}


def _field(raw: dict, key: str, kind: type, default):
    """raw[key], default when absent, which must be a JSON value of kind
    (a JSON integer for int: no bool, float or string)."""
    value = raw.get(key, default)
    if type(value) is not kind:
        raise ConfigError(f"{key} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _rational(value, key: str) -> Fraction:
    """value as a Fraction, or a ConfigError naming the field key."""
    try:
        return frac(value)
    except ExactnessError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _known_keys(raw: dict, keys: tuple, what: str) -> None:
    """Refuse a key of raw outside keys, naming it: a misspelt field would
    otherwise load as its default."""
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {what}")


GENERATOR_KEYS = ("kind", "m", "n", "range", "stepRange", "size", "k",
                  "weightX", "weightY")
ALGORITHM_KEYS = ("kind", "lambda")
EXPERIMENT_KEYS = ("generator", "algorithms", "lambdas", "potential", "trials",
                   "seed", "verify", "audit", "outDir")


def generator_from_json(raw: dict) -> GeneratorConfig:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("generator config must be an object with a kind")
    # k is an alias of size.
    _known_keys(raw, GENERATOR_KEYS, "the generator config")
    return GeneratorConfig(
        kind=raw["kind"],
        m=_field(raw, "m", int, 0),
        n=_field(raw, "n", int, 0),
        coord_range=_field(raw, "range", int, 8),
        step_range=_field(raw, "stepRange", int, 2),
        size=_field(raw, "size" if "size" in raw else "k", int, 4),
        weight_x=_rational(raw.get("weightX", 1), "weightX"),
        weight_y=_rational(raw.get("weightY", 1), "weightY"),
    )


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorConfig
    algorithms: Tuple[AlgorithmConfig, ...]
    trials: int
    seed: int
    verify: bool = False
    audit: bool = False
    potential: Union[str, PotentialConfig] = "cnn"
    out_dir: str = "out"

    def __post_init__(self) -> None:
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ConfigError(f"{name} must be a nonnegative int, got {value!r}")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        # One label names one trace file and one summary row.
        labels = set()
        for alg in self.algorithms:
            if alg.label in labels:
                raise ConfigError(f"algorithm {alg.label} is listed twice")
            labels.add(alg.label)
        # run_all audits verified runs only.
        if self.audit and not self.verify:
            raise ConfigError("audit needs verify")
        # A batch that cannot be verified fails here, before any run.
        for alg in self.algorithms if self.verify else ():
            if alg.kind == "wfa":
                try:
                    potential_for(self.potential, alg.lam)
                except ConfigError as exc:
                    raise ConfigError(f"{alg.label}: {exc}") from exc


def _algorithms_from_json(raw_list, lambdas) -> tuple:
    out = []
    for item in raw_list:
        if isinstance(item, str):
            kind, lam = item, None
        elif isinstance(item, dict):
            _known_keys(item, ALGORITHM_KEYS, "an algorithm entry")
            kind = item.get("kind")
            lam = item.get("lambda")
        else:
            raise ConfigError(f"bad algorithm entry {item!r}")
        if lam is not None:
            out.append(AlgorithmConfig(kind, _rational(lam, "lambda")))
        elif kind == "wfa":
            if not lambdas:
                raise ConfigError(
                    "wfa entries need an explicit lambda or a lambdas list")
            out.extend(AlgorithmConfig("wfa", v) for v in lambdas)
        else:
            out.append(AlgorithmConfig(kind))
    return tuple(out)


def experiment_from_json(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    _known_keys(raw, EXPERIMENT_KEYS, "the experiment config")
    if "generator" not in raw:
        raise ConfigError("experiment config needs a generator")
    gen = generator_from_json(raw["generator"])
    lambdas = tuple(_rational(v, "lambdas") for v in _field(raw, "lambdas", list, []))
    algorithms = _algorithms_from_json(_field(raw, "algorithms", list, []), lambdas)
    return ExperimentConfig(
        generator=gen,
        algorithms=algorithms,
        trials=_field(raw, "trials", int, 1),
        seed=_field(raw, "seed", int, 0),
        verify=_field(raw, "verify", bool, False),
        audit=_field(raw, "audit", bool, False),
        potential=potential_from_json(raw.get("potential")),
        out_dir=_field(raw, "outDir", str, "out"),
    )


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    return experiment_from_json(raw)


# ---------------------------------------------------------------------------
# Serialization helpers


def _fstr(v) -> str:
    return "" if v is None else str(v)


def _approx(v) -> str:
    return "" if v is None else f"{float(v):.12g}"


def _point_json(p) -> dict:
    """A product point or a request, by its two coordinates."""
    return {"x": point_to_json(p.x), "y": point_to_json(p.y)}


def _step_json(rec: StepRecord) -> dict:
    out = {
        "kind": "step",
        "index": rec.index,
        "request": _point_json(rec.request),
        "before": _point_json(rec.position_before),
        "after": _point_json(rec.position_after),
        "move": str(rec.move_cost),
        "nabla": str(rec.nabla),
        "deltaX": str(rec.delta_x),
        "deltaY": str(rec.delta_y),
        "ties": rec.ties,
    }
    if rec.phi_before is not None:
        out["phiBefore"] = str(rec.phi_before)
        out["phiAfter"] = str(rec.phi_after)
    if rec.lemma_report is not None:
        out["lemma"] = rec.lemma_report.to_json()
    return out


def _trace_header(gen: GeneratorConfig, tseed: int, trace: RunTrace) -> dict:
    alg = trace.algorithm
    return {
        "kind": "run",
        "generator": gen.label,
        "trialSeed": tseed,
        "algorithm": alg.label,
        "lambda": None if alg.lam is None else str(alg.lam),
        "n": trace.n,
        "algCost": str(trace.total_cost),
        "optCost": str(trace.opt_cost),
        "ratio": None if trace.ratio is None else str(trace.ratio),
        "nablaTotal": str(trace.total_extended_cost),
        "identityHolds": trace.identity_holds,
        "lemmaFailures": trace.lemma_failures,
        "phiFinal": None if trace.phi_final is None else str(trace.phi_final),
        "finalPosition": _point_json(trace.final_position),
        "finalWork": str(trace.final_work_at_position),
    }


def _summary_row(gen: GeneratorConfig, tseed: int, trace: RunTrace) -> list:
    alg = trace.algorithm
    opt = trace.opt_cost
    nabla_over_opt = (trace.total_extended_cost / opt) if opt > 0 else None
    exact = [gen.label, str(tseed), alg.label,
             _fstr(None if alg.lam is None else alg.lam), str(trace.n),
             str(trace.total_cost), str(trace.opt_cost), _fstr(trace.ratio),
             str(trace.total_extended_cost), _fstr(nabla_over_opt),
             _fstr(trace.min_phi_increase_over_nabla),
             str(trace.lemma_failures)]
    approx = [_approx(trace.total_cost), _approx(trace.opt_cost),
              _approx(trace.ratio), _approx(trace.total_extended_cost),
              _approx(nabla_over_opt),
              _approx(trace.min_phi_increase_over_nabla)]
    return exact + approx


# ---------------------------------------------------------------------------
# Batch runner


def _worker(task) -> tuple:
    """One trial: its instance, every algorithm's trace from one lockstep
    run, and whether the offline oracle agrees with their optimum."""
    config, trial = task
    inst = generate(config.generator, config.seed, trial)
    try:
        traces = run_all(inst, config.algorithms, verify=config.verify,
                         potential=config.potential, audit=config.audit)
    except WfalabError as exc:
        # Name the trial, so the error replays from the batch alone.
        where = (f"{config.generator.label} seed "
                 f"{trial_seed(config.seed, trial)} {exc.algorithm.label}")
        raise type(exc)(f"{where}: {exc}") from exc
    oracle_ok = True
    if inst.n <= MAX_ORACLE_REQUESTS:
        opt = brute_force_opt(inst)
        oracle_ok = all(trace.opt_cost == opt for trace in traces)
    return trial, traces, oracle_ok


def _safe_name(label: str) -> str:
    return label.replace("/", "_")


def _write_margins(path: Path, traces) -> None:
    stats = {}
    for trace in traces:
        for rec in trace.records:
            if rec.lemma_report is None:
                continue
            for chk in rec.lemma_report.checks:
                entry = stats.setdefault(chk.name,
                                         {"count": 0, "failures": 0,
                                          "advisory": chk.advisory,
                                          "min": None})
                entry["count"] += 1
                if not chk.holds:
                    entry["failures"] += 1
                if chk.margin is not None:
                    if entry["min"] is None or chk.margin < entry["min"]:
                        entry["min"] = chk.margin
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["check", "count", "failures", "advisory",
                         "minMargin", "minMarginApprox"])
        for name in sorted(stats):
            e = stats[name]
            writer.writerow([name, e["count"], e["failures"],
                             "yes" if e["advisory"] else "no",
                             _fstr(e["min"]), _approx(e["min"])])


def run_experiment(config: ExperimentConfig, *, out_dir=None, seed=None,
                   jobs: int = 1) -> int:
    """Run the whole batch and write summary.csv, traces, and margins.

    Returns the exit status: 0 clean, 2 when any lemma check failed, 3 when
    the offline oracle disagreed with a work-function optimum.  Config
    errors raise before any run starts.
    """
    if seed is not None:
        config = dataclasses.replace(config, seed=int(seed))
    if out_dir is not None:
        config = dataclasses.replace(config, out_dir=str(out_dir))
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")

    base = Path(config.out_dir)
    traces_dir = base / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    # One task per trial: its algorithms run in lockstep.
    tasks = ([(config, trial) for trial in range(config.trials)]
             if config.algorithms else [])
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_worker, tasks, chunksize=1))
    else:
        results = [_worker(t) for t in tasks]

    lemma_failures = 0
    all_traces = []
    with (base / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for trial, traces, _ in results:
            tseed = trial_seed(config.seed, trial)
            for trace in traces:
                writer.writerow(_summary_row(config.generator, tseed, trace))
                lemma_failures += trace.lemma_failures
                all_traces.append(trace)
                name = f"{trial:03d}-{_safe_name(trace.algorithm.label)}.jsonl"
                with (traces_dir / name).open("w") as tf:
                    tf.write(json.dumps(_trace_header(config.generator, tseed,
                                                      trace),
                                        sort_keys=True, separators=(",", ":")))
                    tf.write("\n")
                    for rec in trace.records:
                        tf.write(json.dumps(_step_json(rec), sort_keys=True,
                                            separators=(",", ":")))
                        tf.write("\n")

    if config.verify:
        _write_margins(base / "lemma_margins.csv", all_traces)

    if not all(oracle_ok for _, _, oracle_ok in results):
        return 3
    if lemma_failures:
        return 2
    return 0


def example_trace(m: int, lam) -> RunTrace:
    """Run the work-function rule on the straight-line family."""
    inst = generate(GeneratorConfig("example", m=m), 0)
    return run(inst, AlgorithmConfig("wfa", frac(lam)))
