"""Tests of the benchmark's own checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The independent optimum must agree with the program's brute-force oracle and
with the straight-line family's known optimum, and the output checks must
pass clean batches and reject altered ones.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from wfalab import (Instance, ProductPoint, RealLine, RequestPoint, cli,  # noqa: E402
                    idx, pt, request)
from wfalab.harness import uniform_metric  # noqa: E402
from wfalab.offline import brute_force_opt  # noqa: E402

from checks import axes_for, check_batch, optimum, origin_of  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def _quarter(rng, bound):
    return Fraction(rng.randint(-4 * bound, 4 * bound), 4)


def _independent_opt(kind, inst, size=0):
    reqs = [(r.x.value, r.y.value) if kind != "finite_uniform"
            else (r.x.index, r.y.index) for r in inst.requests]
    origin = origin_of(kind)
    return optimum(axes_for(kind, origin, reqs, size), origin, reqs)


def test_optimum_matches_brute_force_oracle():
    rng = random.Random(11)
    for case in range(80):
        n = rng.randint(0, 6)
        if case % 2:
            space = uniform_metric(4)
            reqs = tuple(RequestPoint(idx(rng.randrange(4)), idx(rng.randrange(4)))
                         for _ in range(n))
            inst = Instance(space, space, ProductPoint(idx(0), idx(0)), reqs)
            assert _independent_opt("finite_uniform", inst, 4) == brute_force_opt(inst)
        else:
            reqs = tuple(request(_quarter(rng, 4), _quarter(rng, 4))
                         for _ in range(n))
            inst = Instance(RealLine(), RealLine(), pt(0, 0), reqs)
            assert _independent_opt("uniform_random", inst) == brute_force_opt(inst)


def test_optimum_of_the_straight_line_family_is_two():
    for m in (2, 5, 20, 100):
        inst = Instance(RealLine(), RealLine(), pt(0, 0),
                        tuple(request(i, 2) for i in range(1, m + 1)))
        assert _independent_opt("uniform_random", inst) == 2


def _batch(tmp_path, command, config):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out-dir", str(out),
                     "--jobs", "1"]) == 0
    return out


PLANE = {"generator": {"kind": "uniform_random", "n": 5, "range": 8},
         "algorithms": [{"kind": "wfa", "lambda": "1/2"}], "potential": "cnn",
         "trials": 2, "seed": 3, "verify": True}


def test_checks_pass_clean_batches(tmp_path):
    out = _batch(tmp_path / "plane", "run", PLANE)
    assert check_batch(out, PLANE, verified=True) == (10, 0, 2, 0, [])
    finite = {"generator": {"kind": "finite_uniform", "n": 4, "size": 4},
              "algorithms": [{"kind": "wfa", "lambda": "1/4"}],
              "potential": "general", "trials": 2, "seed": 5}
    out = _batch(tmp_path / "finite", "verify", finite)
    assert check_batch(out, finite, verified=True)[1] == 0
    unverified = dict(PLANE, verify=False)
    out = _batch(tmp_path / "unverified", "run", unverified)
    assert check_batch(out, unverified, verified=False) == (10, 0, 2, 0, [])


def test_checks_reject_an_altered_summary_cost(tmp_path):
    out = _batch(tmp_path, "run", PLANE)
    summary = out / "summary.csv"
    lines = summary.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    col = header.index("algCost") + 1  # the quoted generator label holds a comma
    row[col] = str(Fraction(row[col]) + 1)
    summary.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    steps, failed, _, failed_trials, problems = check_batch(out, PLANE, verified=True)
    assert failed == 5 and failed_trials == 1
    assert any("summary algCost" in p for p in problems)


def test_checks_reject_an_altered_move(tmp_path):
    out = _batch(tmp_path, "run", PLANE)
    trace = sorted((out / "traces").glob("*.jsonl"))[0]
    lines = trace.read_text().splitlines()
    step = json.loads(lines[2])
    step["move"] = str(Fraction(step["move"]) + Fraction(1, 4))
    lines[2] = json.dumps(step)
    trace.write_text("\n".join(lines) + "\n")
    _, failed, _, failed_trials, problems = check_batch(out, PLANE, verified=True)
    assert failed == 5 and failed_trials == 1
    assert any("step 1: move" in p for p in problems)


def test_layer_metrics_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics(Tracer(), 0)) == names


def test_checks_count_a_trace_header_without_a_field(tmp_path):
    out = _batch(tmp_path, "run", PLANE)
    trace = sorted((out / "traces").glob("*.jsonl"))[0]
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    del header["algorithm"]
    lines[0] = json.dumps(header)
    trace.write_text("\n".join(lines) + "\n")
    _, failed, _, failed_trials, problems = check_batch(out, PLANE, verified=True)
    assert failed == 5 and failed_trials == 1
    assert any("no algorithm" in p for p in problems)
