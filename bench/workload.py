"""One workload in one fresh process: `python3 bench/workload.py WORKLOAD
SEED SECONDS MODE OUT_DIR`, MODE being 0 (timed), 1 (traced) or setup.
bench/run.py starts it; it is not meant to be run by hand.

Batch workloads write each round's configs from the seed and run them
through the program's own batch path, `wfalab.cli.main([...,
"--jobs", "1"])`, into OUT_DIR/round-KKK/batch-B; the launcher checks those
outputs after this process has ended.  lattice_check calls the engine
directly and checks its results here, after each round's timed part.

Untraced, a round starts while it can be expected to end within SECONDS
(the previous round's time is the estimate); at least one round runs.  Traced, exactly
TRACE_ROUNDS rounds run under the wrappers of spans.py.  In setup mode the
process stops where the first trial would start, so the launcher can time
more cold set-ups.  The last line of standard output is one JSON object for
the launcher.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import wfalab  # noqa: E402
import wfalab.cli  # noqa: E402
import wfalab.offline  # noqa: E402

from checks import axes_for, optimum  # noqa: E402
from workloads import (LAMBDAS, LATTICE_BOUND, LATTICE_INSTANCES,  # noqa: E402
                       LATTICE_N, LATTICE_STEP, TRACE_ROUNDS, batch_configs,
                       batch_steps, round_seed)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def or_error(fn, *args):
    """fn(*args), or the exception it raised: a program error is a failed
    check, not the end of the run."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


class BatchRounds:
    """Rounds of wfalab batches written from the seed."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload, self.seed, self.out = workload, seed, out
        self.output_bytes = 0
        self.pending = self._prepare(0)

    def _prepare(self, k: int) -> list:
        """Write round k's configs, and load them as the program would; a
        config the program rejects fails its batch."""
        out = []
        for b, (command, cfg) in enumerate(batch_configs(self.workload, self.seed, k)):
            bdir = self.out / f"round-{k:03d}" / f"batch-{b}"
            bdir.mkdir(parents=True)
            path = bdir / "config.json"
            path.write_text(json.dumps(cfg))
            loaded = or_error(wfalab.harness.load_config, path)
            if isinstance(loaded, Exception):
                print(f"load_config: {loaded!r}", file=sys.stderr)
            out.append((command, path, bdir, batch_steps(cfg),
                        not isinstance(loaded, Exception)))
        return out

    def round(self, k: int, tracer) -> dict:
        batches = self.pending if k == 0 else self._prepare(k)
        codes = []
        start = time.perf_counter()
        for command, path, bdir, _, loaded in batches:
            if not loaded:
                codes.append(-1)
                continue
            try:
                codes.append(wfalab.cli.main([command, "--config", str(path),
                                              "--out-dir", str(bdir / "out"),
                                              "--jobs", "1"]))
            except Exception:  # a crash of the program is a failed batch
                traceback.print_exc()
                codes.append(-1)
        seconds = time.perf_counter() - start
        if tracer:
            self.output_bytes += sum(dir_bytes(b[2] / "out") for b in batches)
        return {"seconds": seconds, "steps": sum(b[3] for b in batches),
                "failed": 0, "trials": 0, "failed_trials": 0, "exit": codes,
                "problems": []}


def lattice_instances(seed: int, k: int) -> list:
    from wfalab import Instance, RealLine, pt, request

    rng = random.Random(round_seed(seed, k))
    b = 4 * LATTICE_BOUND
    out = []
    for _ in range(LATTICE_INSTANCES):
        reqs = tuple(request(Fraction(rng.randint(-b, b), 4),
                             Fraction(rng.randint(-b, b), 4))
                     for _ in range(LATTICE_N))
        out.append(Instance(RealLine(), RealLine(), pt(0, 0), reqs))
    return out


class LatticeRounds:
    """Exact extended cost at every step, corroborated by the float lattice."""

    def __init__(self, seed: int):
        self.seed = seed
        self.lams = [Fraction(v) for v in LAMBDAS]
        self.step = Fraction(LATTICE_STEP)
        self.output_bytes = 0
        self.pending = lattice_instances(seed, 0)

    def round(self, k: int, tracer) -> dict:
        from wfalab import initial

        instances = self.pending if k == 0 else lattice_instances(self.seed, k)
        done = []
        start = time.perf_counter()
        j = 0
        for inst in instances:
            steps = []
            wf = None
            try:
                wf = initial(inst)
                for r in inst.requests:
                    lam = self.lams[j % len(self.lams)]
                    j += 1
                    value, witness = wf.extended_cost(r, lam)
                    approx = wfalab.offline.dense_slack_max(wf, r, lam, step=self.step)
                    steps.append((wf, r, lam, value, witness, approx))
                    wf = wf.update(r)
            except Exception:  # a crash of the program fails the instance
                traceback.print_exc()
                wf = None
            done.append((inst, steps, wf))
        seconds = time.perf_counter() - start
        failed, failed_trials, problems = 0, 0, []
        with tracer.paused() if tracer else nullcontext():
            for inst, steps, wf in done:
                bad = self._check(inst, steps, wf)
                failed += LATTICE_N if None in bad else len(bad)
                failed_trials += bool(bad)
                problems.extend(f"requests {inst.requests}: {msg}"
                                for msg in bad.values())
        return {"seconds": seconds, "steps": LATTICE_INSTANCES * LATTICE_N,
                "failed": failed, "trials": LATTICE_INSTANCES,
                "failed_trials": failed_trials, "exit": [],
                "problems": problems}

    @staticmethod
    def _check(inst, steps: list, wf_final) -> dict:
        """{step index, or None for the whole instance: message}.

        The exact value never sits below the lattice maximum by more than
        1e-9 nor above it by more than 2^-5, slack at the witness equals the
        value, nabla <= (1+lambda)*delta, and the final optimum equals the
        independent dynamic program's.
        """
        bad = {}
        if wf_final is None:
            bad[None] = "the engine raised"
            return bad
        reqs = [(q.x.value, q.y.value) for q in inst.requests]
        origin = (Fraction(0), Fraction(0))
        opt = optimum(axes_for("uniform_random", origin, reqs), origin, reqs)
        engine_opt = or_error(wf_final.opt_cost)
        if engine_opt != opt:
            bad[None] = f"optimum {engine_opt!r} != {opt}"
        prev = origin
        for i, (wf, r, lam, value, witness, approx) in enumerate(steps):
            cur = reqs[i]
            delta = max(abs(prev[0] - cur[0]), abs(prev[1] - cur[1]))
            msgs = []
            if approx > float(value) + 1e-9:
                msgs.append(f"lattice {approx} above exact {value}")
            if float(value) - approx > 2 ** -5:
                msgs.append(f"exact {value} above lattice {approx} by > 2^-5")
            at_witness = or_error(wf.slack, witness, r, lam)
            if at_witness != value:
                msgs.append(f"slack at witness {witness} is {at_witness!r}, "
                            f"not {value}")
            if value > (1 + lam) * delta:
                msgs.append(f"nabla {value} > (1+lambda)*{delta}")
            if msgs:
                bad[i] = f"step {i}: " + "; ".join(msgs)
            prev = cur
        return bad


def main(argv) -> int:
    workload, seed, seconds, mode, out = argv
    seed, seconds, traced = int(seed), float(seconds), mode == "1"
    out = Path(out)
    if workload == "lattice_check":
        rounds = LatticeRounds(seed)
    else:
        rounds = BatchRounds(workload, seed, out)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t_first = time.clock_gettime(time.CLOCK_MONOTONIC)
    if mode == "setup":
        print(json.dumps({"t_first": t_first}))
        return 0
    results = []
    start = time.perf_counter()
    while (len(results) < TRACE_ROUNDS if traced else
           not results or (time.perf_counter() - start
                           + results[-1]["seconds"] <= seconds)):
        results.append(rounds.round(len(results), tracer))
    report = {"t_first": t_first, "rounds": results,
              "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "wfalab": wfalab.__file__}
    if traced:
        from spans import layer_metrics

        tracer.write(out / "spans.csv")
        report["layers"] = layer_metrics(tracer, rounds.output_bytes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
