"""What each workload runs, as plain data shared by the launcher and the
workload process.

A run is a sequence of rounds; round k of a run with seed s draws its inputs
from the seed s * ROUND_STRIDE + k, so no two rounds of a run share an
instance and the program's per-instance caches never serve a later round.
"""

from __future__ import annotations

ROUND_STRIDE = 10_000

# Rounds a traced run executes: a fixed amount of work, so its counts repeat
# exactly from one traced run to the next.
TRACE_ROUNDS = 3

LAMBDAS = ["1/4", "1/2", "3/4"]


def _wfa(*lambdas) -> list:
    return [{"kind": "wfa", "lambda": lam} for lam in lambdas]


# Each batch is (wfalab subcommand, config without its seed).  The seed is
# filled in per round.
BATCHES = {
    "verify_plane": [
        ("run", {"generator": {"kind": "uniform_random", "n": 8, "range": 8},
                 "algorithms": _wfa(*LAMBDAS), "potential": "cnn",
                 "trials": 2, "verify": True, "audit": False}),
    ],
    "verify_finite": [
        ("verify", {"generator": {"kind": "finite_uniform", "n": 6,
                                  "size": 4},
                    "algorithms": _wfa(*LAMBDAS), "potential": "general",
                    "trials": 5, "verify": True}),
    ],
}

# lattice_check: per round, LATTICE_INSTANCES plane instances of
# LATTICE_N requests with quarter-integer coordinates in
# [-LATTICE_BOUND, LATTICE_BOUND]; lambda cycles through LAMBDAS by step.
LATTICE_INSTANCES = 3
LATTICE_N = 8
LATTICE_BOUND = 2
LATTICE_STEP = "1/64"

WORKLOADS = ("verify_plane", "verify_finite", "lattice_check")


def round_seed(seed: int, k: int) -> int:
    return seed * ROUND_STRIDE + k


def batch_configs(workload: str, seed: int, k: int) -> list:
    """[(subcommand, config dict)] for round k of a run with this seed."""
    return [(command, dict(base, seed=round_seed(seed, k)))
            for command, base in BATCHES[workload]]


def batch_steps(config: dict) -> int:
    return (config["generator"]["n"] * config["trials"]
            * len(config["algorithms"]))
