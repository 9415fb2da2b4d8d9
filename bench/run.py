"""Benchmark of the wfalab exact lab: end-to-end metrics, per-layer traces,
and output checks made apart from the engine.

    python3 bench/run.py --workload verify_plane --seed 1 --seconds 30 --trace 0

Each run starts the workload in a fresh, single-threaded Python process
(bench/workload.py), times it from before that process exists, and checks
every output once it has ended.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics (steps_per_s,
peak_rss_mb, and setup_s, the median of SETUP_PROCESSES cold set-ups); with
--trace 1 it carries the per-layer metrics.
--workload all runs every workload in turn.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_batch  # noqa: E402
from workloads import WORKLOADS, batch_configs  # noqa: E402

# The workload process is stopped after this long; a run must end well
# within three minutes.
CHILD_TIMEOUT_S = 150

# Cold set-ups timed per untraced run: the workload process's own and
# SETUP_PROCESSES - 1 fresh processes that stop before the first trial.
# On a 2-vCPU VM, single cold starts a second apart differed by up to 2x
# (0.25 to 0.51 s), while medians of five stayed within about 10%.
SETUP_PROCESSES = 5


def start_child(workload: str, seed: int, seconds: int, mode: str,
                out: Path) -> tuple:
    """Run the single-threaded workload process; return (its report, setup
    seconds)."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "workload.py"), workload, str(seed),
           str(seconds), mode, str(out)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload}: workload process passed "
                           f"{CHILD_TIMEOUT_S} s and was stopped")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: workload process exited "
                           f"{proc.returncode}")
    report = json.loads(stdout.decode().strip().splitlines()[-1])
    return report, report["t_first"] - t0


def check_rounds(workload: str, seed: int, out: Path, rounds: list) -> list:
    """Check each batch round's outputs; fill in its failures."""
    for k, rnd in enumerate(rounds):
        if workload == "lattice_check":
            continue
        for b, ((command, cfg), code) in enumerate(
                zip(batch_configs(workload, seed, k), rnd["exit"])):
            bdir = out / f"round-{k:03d}" / f"batch-{b}" / "out"
            steps, failed, trials, failed_trials, problems = check_batch(
                bdir, cfg, verified=cfg.get("verify", False) or command == "verify")
            if code != 0:
                failed, failed_trials = steps, trials
                problems.append(f"{command} exited with status {code}")
            rnd["failed"] += failed
            rnd["trials"] += trials
            rnd["failed_trials"] += failed_trials
            rnd["problems"].extend(f"round {k} batch {b}: {p}" for p in problems)
    return rounds


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (ROOT / "src" / "wfalab" / "__init__.py").is_file():
        raise RuntimeError(f"no wfalab sources under {ROOT / 'src'}")
    base = HERE / "out"
    base.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-t{trace}-", dir=base))
    report, setup_s = start_child(workload, seed, seconds, str(trace), out)
    if Path(report["wfalab"]).resolve().parent != ROOT / "src" / "wfalab":
        raise RuntimeError(f"measured the wrong wfalab: {report['wfalab']}")
    rounds = check_rounds(workload, seed, out, report["rounds"])
    attempted = sum(r["steps"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:20]:
        print(f"FAILED {workload} seed {seed}: {p}", file=sys.stderr)
    batch_s = sum(r["seconds"] for r in rounds)
    print(f"{workload} seed {seed} trace {trace}: {len(rounds)} rounds, "
          f"{attempted} steps in {batch_s:.3f} s; round seconds "
          + " ".join(f"{r['seconds']:.3f}" for r in rounds))
    print(f"  trials attempted {sum(r['trials'] for r in rounds)}, "
          f"failed {sum(r['failed_trials'] for r in rounds)}")
    if trace:
        metrics = report["layers"]
        shutil.move(str(out / "spans.csv"), str(base / f"spans-{workload}-s{seed}.csv"))
    else:
        setups = [setup_s] + [
            start_child(workload, seed, 0, "setup", out / f"setup-{i}")[1]
            for i in range(SETUP_PROCESSES - 1)]
        metrics = {
            "steps_per_s": {"value": attempted / batch_s, "unit": "steps/s"},
            "peak_rss_mb": {"value": report["max_rss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    if not problems:
        shutil.rmtree(out)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            for metric, m in res["metrics"].items():
                print(f"  {metric} {m['value']} {m['unit']}")
            print(f"  steps attempted {res['attempted']}, failed {res['failed']}")
            results[name] = res
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
