"""Instance generators, batch configs, the experiment runner, and the CLI."""

import contextlib
import csv
import dataclasses
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from wfalab import cli, harness, potential
from wfalab.potential import (CnnPotential, config_to_json, default_constants,
                              potential_for)
from wfalab.errors import AuditError, ConfigError
from wfalab.harness import (GENERATOR_KINDS, SUMMARY_COLUMNS,
                            TRIAL_SEED_STRIDE, ExperimentConfig,
                            GeneratorConfig, experiment_from_json, generate,
                            generator_from_json, run_experiment,
                            trial_seed)
from wfalab.metric import IndexPoint, Scaled
from wfalab.workfn import WorkFunction

HALF = Fraction(1, 2)


def small_experiment(**overrides):
    raw = {
        "generator": {"kind": "uniform_random", "n": 4, "range": 3},
        "algorithms": ["greedy", {"kind": "wfa", "lambda": "1/2"}],
        "trials": 2,
        "seed": 9,
        "verify": True,
    }
    raw.update(overrides)
    return experiment_from_json(raw)


def read_tree(base):
    out = {}
    for path in sorted(Path(base).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(base))] = path.read_bytes()
    return out


def test_generator_validation_and_labels():
    assert GeneratorConfig("example", m=3).label == "example(m=3)"
    gen = GeneratorConfig("uniform_random", n=5, coord_range=2)
    assert gen.label == "uniform_random(n=5,range=2)"
    with pytest.raises(ConfigError):
        GeneratorConfig("mystery", n=3)
    with pytest.raises(ConfigError):
        GeneratorConfig("example", m=0)
    with pytest.raises(ConfigError):
        GeneratorConfig("uniform_random", n=0)
    with pytest.raises(ConfigError):
        GeneratorConfig("random_walk", n=3, step_range=0)
    with pytest.raises(ConfigError):
        GeneratorConfig("finite_uniform", n=3, size=1)
    with pytest.raises(ConfigError):
        GeneratorConfig("weighted_line", n=3, weight_x=0)


def test_example_family_shape():
    inst = generate(GeneratorConfig("example", m=4), seed=123)
    assert [(r.x.value, r.y.value) for r in inst.requests] == [
        (1, 2), (2, 2), (3, 2), (4, 2)]


def test_uniform_random_bounds_and_determinism():
    gen = GeneratorConfig("uniform_random", n=6, coord_range=3)
    inst = generate(gen, seed=5, trial=2)
    for r in inst.requests:
        for v in (r.x.value, r.y.value):
            assert abs(v) <= 3
            assert v.denominator in (1, 2, 4)
    again = generate(gen, seed=5, trial=2)
    assert inst.requests == again.requests
    other = generate(gen, seed=5, trial=3)
    assert inst.requests != other.requests


def test_orthogonal_requests_share_a_coordinate():
    gen = GeneratorConfig("orthogonal", n=8, coord_range=4)
    inst = generate(gen, seed=11)
    prev_x, prev_y = Fraction(0), Fraction(0)
    for r in inst.requests:
        assert r.x.value == prev_x or r.y.value == prev_y
        prev_x, prev_y = r.x.value, r.y.value


def test_random_walk_steps_are_bounded():
    gen = GeneratorConfig("random_walk", n=8, step_range=2)
    inst = generate(gen, seed=13)
    x = y = Fraction(0)
    for r in inst.requests:
        assert abs(r.x.value - x) <= 2
        assert abs(r.y.value - y) <= 2
        x, y = r.x.value, r.y.value


def test_finite_uniform_and_weighted_line():
    inst = generate(GeneratorConfig("finite_uniform", n=5, size=3), seed=17)
    for r in inst.requests:
        assert isinstance(r.x, IndexPoint) and r.x.index < 3
        assert isinstance(r.y, IndexPoint) and r.y.index < 3
    weighted = generate(
        GeneratorConfig("weighted_line", n=3, coord_range=2,
                        weight_x=1, weight_y=3), seed=17)
    assert isinstance(weighted.space_y, Scaled)
    from wfalab import real

    assert weighted.distance_y(real(0), real(1)) == 3
    assert weighted.distance_x(real(0), real(1)) == 1


def test_trial_seed_stride():
    assert trial_seed(3, 5) == 3 * TRIAL_SEED_STRIDE + 5
    assert trial_seed(0, 0) == 0


def test_generator_json_round_trip():
    """Each kind's JSON fields parse to the config they name."""
    samples = [
        ({"kind": "example", "m": 5}, GeneratorConfig("example", m=5)),
        ({"kind": "uniform_random", "n": 4, "range": 6},
         GeneratorConfig("uniform_random", n=4, coord_range=6)),
        ({"kind": "random_walk", "n": 4, "stepRange": 3},
         GeneratorConfig("random_walk", n=4, step_range=3)),
        ({"kind": "orthogonal", "n": 4, "range": 2},
         GeneratorConfig("orthogonal", n=4, coord_range=2)),
        ({"kind": "finite_uniform", "n": 4, "size": 5},
         GeneratorConfig("finite_uniform", n=4, size=5)),
        ({"kind": "weighted_line", "n": 4, "range": 2, "weightX": "1/2", "weightY": "3"},
         GeneratorConfig("weighted_line", n=4, coord_range=2,
                         weight_x=Fraction(1, 2), weight_y=3)),
    ]
    assert {g.kind for _, g in samples} == set(GENERATOR_KINDS)
    for raw, gen in samples:
        assert generator_from_json(raw) == gen
    assert generator_from_json({"kind": "finite_uniform", "n": 2, "k": 6}).size == 6
    with pytest.raises(ConfigError):
        generator_from_json({"n": 4})


def test_experiment_parsing_expands_lambdas():
    cfg = experiment_from_json({
        "generator": {"kind": "uniform_random", "n": 3},
        "algorithms": ["wfa", "greedy"],
        "lambdas": ["1/4", "1/2"],
        "potential": "general",
        "trials": 1,
        "seed": 2,
    })
    labels = [a.label for a in cfg.algorithms]
    assert labels == ["wfa[1/4]", "wfa[1/2]", "greedy"]
    assert cfg.potential == "general"


def test_experiment_parsing_rejects_bad_fields():
    base = {"generator": {"kind": "uniform_random", "n": 3}}
    with pytest.raises(ConfigError):
        experiment_from_json({**base, "algorithms": ["wfa"]})
    with pytest.raises(ConfigError):
        experiment_from_json({**base, "algorithms": ["sprint"]})
    with pytest.raises(ConfigError):
        experiment_from_json({**base, "trials": -1})
    with pytest.raises(ConfigError):
        experiment_from_json({**base, "potential": 7})
    with pytest.raises(ConfigError):
        experiment_from_json({})
    for kind in ("greedy", "retrospective"):
        with pytest.raises(ConfigError, match=f"^{kind} takes no lambda"):
            experiment_from_json({**base, "algorithms": [{"kind": kind,
                                                          "lambda": "1/2"}]})


# Batches a load refuses, and the start of the error naming why: an unknown
# key, an algorithm listed twice, an audit with nothing verified, and a
# constant the potential's variant does not have.
REFUSED = [
    ({"verfy": True}, "unknown key 'verfy' in the experiment config"),
    ({"generator": {"kind": "uniform_random", "n": 3, "rnage": 2}},
     "unknown key 'rnage' in the generator config"),
    ({"algorithms": [{"kind": "wfa", "lamda": "1/2"}]},
     "unknown key 'lamda' in an algorithm entry"),
    ({"algorithms": ["wfa"], "lambdas": ["1/2", "2/4"]},
     r"algorithm wfa\[1/2\] is listed twice"),
    ({"algorithms": ["wfa", {"kind": "wfa", "lambda": "1/2"}], "lambdas": ["1/2"]},
     r"algorithm wfa\[1/2\] is listed twice"),
    ({"algorithms": ["greedy", "greedy"]}, "algorithm greedy is listed twice"),
    ({"audit": True}, "audit needs verify"),
    ({"potential": {"variant": "cnn", "lambda": "1/2", "alpha": "1/30",
                    "gamma": "1/100", "kappa": "1/5"}},
     "unknown key 'kappa' in the potential config"),
]


@pytest.mark.parametrize("fields,error", REFUSED,
                         ids=["experiment-key", "generator-key", "algorithm-key",
                              "lambdas-twice", "wfa-twice", "greedy-twice",
                              "audit-unverified", "potential-key"])
def test_refused_batches_fail_at_load(tmp_path, fields, error):
    """A batch that would load a misspelt field as its default, write one
    algorithm's trace twice, or audit nothing is refused when it is loaded,
    naming the cause; `wfalab run` exits 1 and writes nothing."""
    raw = {"generator": {"kind": "uniform_random", "n": 3},
           "algorithms": [{"kind": "wfa", "lambda": "1/2"}], "trials": 2,
           **fields}
    with pytest.raises(ConfigError, match=f"^{error}"):
        experiment_from_json(raw)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 1
    assert err.getvalue().startswith("config error: ")
    assert not out.exists()


# Each batch field of a JSON type, given a value of another, and the field
# the error must name.
MISTYPED = [
    ({"verify": "false"}, "verify"),
    ({"audit": 1}, "audit"),
    ({"trials": 1.9}, "trials"),
    ({"trials": True}, "trials"),
    ({"seed": "9"}, "seed"),
    ({"outDir": 5}, "outDir"),
    ({"generator": {"kind": "uniform_random", "n": "abc"}}, "n"),
    ({"generator": {"kind": "uniform_random", "n": 3, "range": 2.5}}, "range"),
    ({"generator": {"kind": "example", "m": False}}, "m"),
    ({"generator": {"kind": "random_walk", "n": 3, "stepRange": "2"}}, "stepRange"),
    ({"generator": {"kind": "finite_uniform", "n": 3, "size": 4.0}}, "size"),
    ({"generator": {"kind": "finite_uniform", "n": 3, "k": True}}, "k"),
    ({"lambdas": "1"}, "lambdas"),
    ({"algorithms": "greedy"}, "algorithms"),
]


def _mistyped_id(fields, name) -> str:
    value = fields.get(name, fields.get("generator", {}).get(name))
    return f"{name}:{type(value).__name__}"


@pytest.mark.parametrize("fields,name", MISTYPED,
                         ids=[_mistyped_id(*case) for case in MISTYPED])
def test_mistyped_config_fields_are_refused(tmp_path, fields, name):
    """A config field given a value of the wrong JSON type is refused,
    naming the field, rather than coerced; the CLI exits 1 and writes
    nothing."""
    raw = {"generator": {"kind": "uniform_random", "n": 3},
           "algorithms": [{"kind": "wfa", "lambda": "1/2"}], **fields}
    with pytest.raises(ConfigError, match=f"^{name} must be a JSON "):
        experiment_from_json(raw)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 1
    assert err.getvalue().startswith(f"config error: {name} must be")
    assert not out.exists()


# Rational fields given a JSON float, and the field the error must name.
FLOAT_RATIONALS = [
    ({"generator": {"kind": "weighted_line", "n": 3, "weightX": 0.5}}, "weightX"),
    ({"generator": {"kind": "weighted_line", "n": 3, "weightY": 2.0}}, "weightY"),
    ({"algorithms": ["wfa"], "lambdas": [0.5]}, "lambdas"),
    ({"algorithms": [{"kind": "wfa", "lambda": 0.25}]}, "lambda"),
]


@pytest.mark.parametrize("fields,name", FLOAT_RATIONALS,
                         ids=[name for _, name in FLOAT_RATIONALS])
def test_float_rationals_are_refused_naming_their_field(fields, name):
    raw = {"generator": {"kind": "uniform_random", "n": 3},
           "algorithms": ["greedy"], **fields}
    with pytest.raises(ConfigError, match=f"^{name}: expected an exact rational"):
        experiment_from_json(raw)


@pytest.mark.parametrize("field", ["m", "n", "coord_range", "step_range", "size"])
def test_generator_counts_refuse_bools(field):
    """A bool is an int to Python, but no count."""
    with pytest.raises(ConfigError, match=f"^{field} must be an int"):
        GeneratorConfig("uniform_random", **{"n": 2, field: True})


@pytest.mark.parametrize("field", ["trials", "seed"])
def test_experiment_counts_refuse_bools(field):
    gen = GeneratorConfig("uniform_random", n=2)
    fields = {"trials": 1, "seed": 0, field: field == "trials"}
    with pytest.raises(ConfigError, match=f"^{field} must be a nonnegative int"):
        ExperimentConfig(gen, (), **fields)


def test_experiment_parsing_accepts_explicit_potential():
    cfg = experiment_from_json({
        "generator": {"kind": "uniform_random", "n": 3},
        "algorithms": [{"kind": "wfa", "lambda": "1/2"}],
        "potential": {"variant": "cnn", "lambda": "1/2",
                      "alpha": "1/30", "gamma": "1/100"},
    })
    assert cfg.potential == CnnPotential(HALF, Fraction(1, 30), Fraction(1, 100))


def test_potential_field_forms_resolve_to_their_constants():
    """Each form of the batch potential field gives a verified wfa run the
    constants it gave when the field was parsed into a variant and a
    config: a variant's defaults at the run's lambda, or the object."""
    cnn = {lam: default_constants(lam) for lam in (Fraction(1, 4), HALF)}
    general = {lam: default_constants(lam, "general") for lam in cnn}
    assert cnn[HALF] == CnnPotential(HALF, Fraction(1, 28), Fraction(1, 120))
    assert general[HALF].kappa == Fraction(1, 872)
    forms = [(None, cnn), ("default", cnn), ("cnn", cnn), ({}, cnn),
             ({"variant": "cnn"}, cnn), ("general", general),
             ({"variant": "general"}, general)]
    base = {"generator": {"kind": "uniform_random", "n": 3},
            "algorithms": ["wfa"], "lambdas": ["1/4", "1/2"], "verify": True}
    for form, want in forms:
        raw = base if form is None else {**base, "potential": form}
        cfg = experiment_from_json(raw)
        assert {a.lam: potential_for(cfg.potential, a.lam)
                for a in cfg.algorithms} == want
    for lam, explicit in ((HALF, cnn[HALF]), (HALF, general[HALF]),
                          (Fraction(1, 4), general[Fraction(1, 4)])):
        cfg = experiment_from_json({**base, "lambdas": [str(lam)],
                                    "potential": config_to_json(explicit)})
        assert cfg.potential == explicit
        assert potential_for(cfg.potential, lam) is cfg.potential
    for bad in ("banana", {"variant": "banana"}, {"variant": "cnn", "lambda": "1/2"},
                ["cnn"]):
        with pytest.raises(ConfigError):
            experiment_from_json({**base, "potential": bad})


UNVERIFIABLE = [
    # Default constants need a lambda below 1.
    {"lambdas": ["1/2", "1"]},
    # An explicit potential verifies its own lambda only.
    {"lambdas": ["1/2", "1/4"],
     "potential": {"variant": "cnn", "lambda": "1/2", "alpha": "1/30",
                   "gamma": "1/100"}},
]


@pytest.mark.parametrize("fields", UNVERIFIABLE)
def test_unverifiable_batches_fail_at_load(tmp_path, fields):
    """A verified batch whose potential cannot verify one of its wfa lambdas
    is refused when it is loaded, naming the algorithm, and writes nothing;
    `wfalab verify` refuses it too when the file itself does not verify."""
    raw = {"generator": {"kind": "uniform_random", "n": 3},
           "algorithms": ["wfa"], "trials": 2, "seed": 1, **fields}
    plain = experiment_from_json(raw)
    assert not plain.verify
    with pytest.raises(ConfigError, match=r"^wfa\["):
        experiment_from_json({**raw, "verify": True})
    for command, verify in (("run", True), ("verify", False), ("verify", True)):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({**raw, "verify": verify}))
        out = tmp_path / f"out-{command}-{verify}"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main([command, "--config", str(path),
                             "--out-dir", str(out)]) == 1
        assert err.getvalue().startswith("config error: wfa[")
        assert not out.exists()


def test_zero_trials_writes_header_only(tmp_path):
    cfg = small_experiment(trials=0)
    status = run_experiment(cfg, out_dir=tmp_path)
    assert status == 0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines == [",".join(SUMMARY_COLUMNS)]
    assert list((tmp_path / "traces").iterdir()) == []


def test_batch_outputs_are_deterministic(tmp_path):
    cfg = small_experiment()
    assert run_experiment(cfg, out_dir=tmp_path / "a") == 0
    assert run_experiment(cfg, out_dir=tmp_path / "b") == 0
    tree_a = read_tree(tmp_path / "a")
    assert tree_a == read_tree(tmp_path / "b")
    assert "summary.csv" in tree_a
    assert "lemma_margins.csv" in tree_a
    trace_names = [n for n in tree_a if n.startswith("traces/")]
    assert sorted(trace_names) == [
        "traces/000-greedy.jsonl", "traces/000-wfa[1_2].jsonl",
        "traces/001-greedy.jsonl", "traces/001-wfa[1_2].jsonl"]


def test_parallel_jobs_match_serial(tmp_path):
    cfg = small_experiment()
    assert run_experiment(cfg, out_dir=tmp_path / "serial", jobs=1) == 0
    assert run_experiment(cfg, out_dir=tmp_path / "par", jobs=2) == 0
    assert read_tree(tmp_path / "serial") == read_tree(tmp_path / "par")


def test_summary_rows_and_trace_lines(tmp_path):
    cfg = small_experiment(trials=1)
    run_experiment(cfg, out_dir=tmp_path)
    with (tmp_path / "summary.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["generator", "seed", "algorithm", "lambda"]
    body = rows[1:]
    assert len(body) == 2
    for cells in body:
        assert cells[0] == cfg.generator.label
        assert cells[1] == str(trial_seed(cfg.seed, 0))
        assert cells[4] == "4"
    by_alg = {cells[2]: cells for cells in body}
    assert by_alg["greedy"][3] == ""
    assert by_alg["wfa[1/2]"][3] == "1/2"
    trace_file = tmp_path / "traces" / "000-wfa[1_2].jsonl"
    lines = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert lines[0]["kind"] == "run"
    assert lines[0]["lemmaFailures"] == 0
    assert len(lines) == 5
    for step in lines[1:]:
        assert step["kind"] == "step"
        assert "lemma" in step
        assert step["lemma"]["failures"] == 0


def test_margins_file_aggregates_checks(tmp_path):
    cfg = small_experiment(trials=1)
    run_experiment(cfg, out_dir=tmp_path)
    rows = (tmp_path / "lemma_margins.csv").read_text().splitlines()
    assert rows[0] == "check,count,failures,advisory,minMargin,minMarginApprox"
    table = {cells[0]: cells for cells in (r.split(",") for r in rows[1:])}
    assert table["phi_increase"][2] == "0"
    assert table["chain_f_g_h"][3] == "no"
    for name in table:
        if name.startswith("lipschitz"):
            assert table[name][3] == "yes"


def test_oracle_disagreement_sets_exit_three(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "brute_force_opt", lambda inst: Fraction(-1))
    cfg = small_experiment(trials=1, verify=False)
    assert run_experiment(cfg, out_dir=tmp_path) == 3


def test_lemma_failures_set_exit_two(tmp_path, monkeypatch):
    true_run_all = harness.run_all

    def lying_run_all(*args, **kwargs):
        return [dataclasses.replace(trace, lemma_failures=1)
                for trace in true_run_all(*args, **kwargs)]

    monkeypatch.setattr(harness, "run_all", lying_run_all)
    cfg = small_experiment(trials=1)
    assert run_experiment(cfg, out_dir=tmp_path) == 2


def test_cli_example_and_run(tmp_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["example", "--m", "3", "--lambda", "1/2"])
    assert status == 0
    out = buf.getvalue()
    assert "cost: 3" in out
    assert "algorithm: wfa[1/2]" in out

    config_path = tmp_path / "batch.json"
    config_path.write_text(json.dumps({
        "generator": {"kind": "uniform_random", "n": 3, "range": 2},
        "algorithms": [{"kind": "wfa", "lambda": "1/2"}],
        "trials": 1,
        "seed": 4,
    }))
    status = cli.main(["run", "--config", str(config_path),
                       "--out-dir", str(tmp_path / "out")])
    assert status == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_verify_forces_verification(tmp_path, monkeypatch):
    captured = {}

    def fake_run_experiment(config, **kwargs):
        captured["config"] = config
        return 0

    monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
    config_path = tmp_path / "batch.json"
    config_path.write_text(json.dumps({
        "generator": {"kind": "uniform_random", "n": 3},
        "algorithms": [{"kind": "wfa", "lambda": "1/2"}],
    }))
    assert cli.main(["verify", "--config", str(config_path)]) == 0
    assert captured["config"].verify is True
    assert captured["config"].audit is True


def test_cli_config_errors_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["run", "--config", str(bad)]) == 1
    assert "config error" in err.getvalue()
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 1


def test_run_errors_name_their_trial(tmp_path, monkeypatch):
    def failing_run_all(inst, algs, **kwargs):
        exc = AuditError("midpoint refinement improved min F")
        exc.algorithm = algs[0]
        raise exc

    monkeypatch.setattr(harness, "run_all", failing_run_all)
    cfg = small_experiment(trials=2)
    with pytest.raises(AuditError) as info:
        run_experiment(cfg, out_dir=tmp_path)
    alg = cfg.algorithms[0]
    assert str(info.value) == (f"{cfg.generator.label} seed {trial_seed(9, 0)} "
                               f"{alg.label}: midpoint refinement improved min F")
    assert isinstance(info.value.__cause__, AuditError)


def test_step_errors_name_their_trial_and_step(tmp_path, monkeypatch):
    verify_step = potential.verify_step

    def failing_verify(before, after, *args, **kwargs):
        if before.i == 2:
            raise AuditError("midpoint refinement improved min F")
        return verify_step(before, after, *args, **kwargs)

    monkeypatch.setattr(potential, "verify_step", failing_verify)
    cfg = small_experiment(algorithms=[{"kind": "wfa", "lambda": "1/2"}])
    with pytest.raises(AuditError) as info:
        run_experiment(cfg, out_dir=tmp_path)
    alg = cfg.algorithms[0]
    assert str(info.value) == (f"{cfg.generator.label} seed {trial_seed(9, 0)} "
                               f"{alg.label}: step 2: midpoint refinement "
                               f"improved min F")
    assert str(info.value.__cause__) == "step 2: midpoint refinement improved min F"
    assert isinstance(info.value.__cause__.__cause__, AuditError)


def test_a_trial_shares_its_work_functions_and_its_oracle(tmp_path, monkeypatch):
    """A trial's algorithms run in lockstep: each verified step updates the
    trial's work function once and the Lipschitz probe's once, and each
    trial computes one brute-force optimum, however many algorithms run."""
    counts = Counter()
    update, oracle = WorkFunction.update, harness.brute_force_opt
    monkeypatch.setattr(WorkFunction, "update",
                        lambda self, r: counts.update(["update"]) or update(self, r))
    monkeypatch.setattr(harness, "brute_force_opt",
                        lambda inst: counts.update(["oracle"]) or oracle(inst))
    lam = [{"kind": "wfa", "lambda": v} for v in ("1/4", "1/2", "3/4")]
    for algorithms in (lam[1:2], lam + ["greedy", "retrospective"]):
        counts.clear()
        cfg = small_experiment(algorithms=algorithms)
        assert run_experiment(cfg, out_dir=tmp_path / str(len(algorithms))) == 0
        n = cfg.generator.n
        assert counts == {"update": 2 * n * cfg.trials, "oracle": cfg.trials}


def test_a_trial_names_its_first_failing_algorithm(tmp_path, monkeypatch):
    """wfa[1/2] fails first, at step 1, but wfa[1/4] comes first in the
    config: the batch raises wfa[1/4]'s error, from step 2."""
    verify_step = potential.verify_step

    def failing_verify(before, after, cfg, **kwargs):
        if (cfg.lam, before.i) in {(HALF, 1), (Fraction(1, 4), 2)}:
            raise AuditError("midpoint refinement improved min F")
        return verify_step(before, after, cfg, **kwargs)

    monkeypatch.setattr(potential, "verify_step", failing_verify)
    cfg = small_experiment(algorithms=[{"kind": "wfa", "lambda": "1/4"},
                                       {"kind": "wfa", "lambda": "1/2"}])
    with pytest.raises(AuditError) as info:
        run_experiment(cfg, out_dir=tmp_path)
    assert str(info.value) == (f"{cfg.generator.label} seed {trial_seed(9, 0)} "
                               f"wfa[1/4]: step 2: midpoint refinement "
                               f"improved min F")


def test_a_position_past_the_headroom_fails_its_step(tmp_path):
    """At weight 1/4611686018427387847 on x the instance scale passes 2**64,
    so the first request's y position cannot fit the integer kernel: the
    CLI exits 1 naming the trial's seed and step 0, with no traceback."""
    raw = {"generator": {"kind": "weighted_line", "n": 3, "range": 2,
                         "weightX": "1/4611686018427387847"},
           "algorithms": ["greedy"], "trials": 1, "seed": 3}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 1
    message = err.getvalue()
    assert message.startswith("error: ")
    assert f"seed {trial_seed(3, 0)} greedy: step 0: coordinate " in message
    assert "overflows the integer kernel" in message
