"""Closed-form plan-size and repetition-count formulas.

These are shared by the planners, the seed-exact dry-run predictors, and
the complexity audit, so a planned run and its predicted query count can
never drift apart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

PAPER = "paper"
FAST = "fast"


@dataclass(frozen=True)
class Constants:
    """Tunable constants; defaults follow the written algorithm settings.

    All but c_delta are exposed on the CLI.
    """
    c2: float = 50.0
    c_T: float = 48.0        # fast-profile repetition constant for NS counts
    c_lambda: float = 1.0    # partition-count constant in the degree sketch
    c_R: float = 8.0         # repetition constant in single element recovery
    c_nb: float = 4.0        # per-vertex neighbor-sample constant (round 1)
    c_se: float = 4.0        # superedge-sample constant (round 2)
    c_delta: float = 1.0     # failure-budget constant for per-part recovery
    ser_pool_scale: float = 1.0   # batch-mode multiplier for recovery reps

    def with_overrides(self, **kw) -> "Constants":
        return replace(self, **{k: v for k, v in kw.items() if v is not None})


def log2_raw(n: int) -> float:
    return math.log2(max(2, n))


def log2_floored(n: int) -> float:
    return max(2.0, math.log2(max(2, n)))


def loglog2(n: int) -> float:
    return max(2.0, math.log2(log2_floored(n)))


# -- neighborhood-size estimator -------------------------------------------

def ns_levels(n: int) -> int:
    """Sampling levels 0..floor(log2 n)."""
    return int(math.floor(math.log2(max(2, n)))) + 1


def ns_reps(n: int, epsilon: float, delta: float, profile: str,
            constants: Constants) -> int:
    c = 2.0 * math.e ** 8 if profile == PAPER else constants.c_T
    return int(math.ceil(c * math.log(log2_raw(n) / delta) / epsilon ** 2))


def ns_plan_size(n: int, epsilon: float, delta: float, profile: str,
                 constants: Constants) -> int:
    return ns_levels(n) * ns_reps(n, epsilon, delta, profile, constants)


# -- count-min style degree sketch ------------------------------------------

def deg_reps(n: int) -> int:
    return int(math.ceil(2 * log2_raw(n)))


def deg_parts(n: int, epsilon: float, extended: bool,
              constants: Constants) -> int:
    power = 4 if extended else 3
    return int(math.ceil(
        constants.c_lambda * epsilon ** -power * log2_raw(n) ** 2))


def deg_delta_inner(n: int) -> float:
    return 1.0 / log2_floored(n) ** 4


def ser_delta(n: int, epsilon: float, constants: Constants) -> float:
    return constants.c_delta * epsilon / log2_floored(n) ** 4


# -- single element recovery -------------------------------------------------

def ser_bits(domain: int) -> int:
    if domain <= 1:
        return 0
    return int(math.ceil(math.log2(domain)))


def ser_levels(domain: int) -> int:
    return ser_bits(domain) + 1 if domain > 1 else 1


def ser_reps(delta: float, constants: Constants) -> int:
    return max(1, int(math.ceil(constants.c_R * math.log(1.0 / delta))))


def ser_rows_per_rep(domain: int) -> int:
    return 2 * ser_bits(domain) + 2


def ser_pool_reps(n: int, epsilon: float, constants: Constants) -> int:
    """Recovery repetitions per degree-sketch cell, scaled for pool mode."""
    base = ser_reps(ser_delta(n, epsilon, constants), constants)
    return max(1, int(math.ceil(base * constants.ser_pool_scale)))


def ser_queries(domain: int, reps: int) -> int:
    """Queries of one recovery plan: levels x reps x rows per rep."""
    return ser_levels(domain) * reps * ser_rows_per_rep(domain)


def ser_plan_size(domain: int, delta: float, constants: Constants) -> int:
    return ser_queries(domain, ser_reps(delta, constants))


# -- edge-estimator level ladder -------------------------------------------

def level_ladder(n: int, epsilon: float,
                 profile: str) -> tuple[float, float, int, int]:
    """Scaled epsilon, gamma, bucket count B and top level L of the ladder.

    The paper profile rescales epsilon by its loglog factor; the fast
    profile uses epsilon as given (a documented deviation).  That factor,
    log log2 n, is 0 for n <= 2, so the paper profile refuses such n.
    """
    if profile == PAPER:
        if n < 3:
            raise ValueError(f"the paper profile needs n >= 3, got n={n}")
        eps_scaled = epsilon / (600.0 * math.log(log2_raw(n))
                                / math.log(1.0 / epsilon))
    else:
        eps_scaled = epsilon
    gamma = 1.0 / (1.0 - eps_scaled)
    buckets = max(1, int(math.ceil(2.0 / eps_scaled)))
    top = int(math.ceil(math.log(n) / math.log(gamma) / buckets)) + 1
    return eps_scaled, gamma, buckets, top


# -- coarse whole-graph bootstrap --------------------------------------------

def coarse_rate_count(n: int) -> int:
    return 2 * int(math.ceil(log2_raw(n))) + 1


def coarse_reps(n: int) -> int:
    return int(math.ceil(8 * math.log(max(2, n))))


def coarse_plan_size(n: int) -> int:
    return coarse_rate_count(n) * coarse_reps(n)


# -- connectivity -------------------------------------------------------------

def neighbor_sample_target(n: int, constants: Constants) -> int:
    return int(math.ceil(constants.c_nb * log2_raw(n) ** 2))


def round1_reps(n: int, constants: Constants) -> int:
    """Recovery repetitions per vertex in connectivity round 1."""
    delta = 1.0 / max(2, n) ** 4
    return max(ser_reps(delta, constants), neighbor_sample_target(n, constants))


def superedge_sample_count(n: int, constants: Constants) -> int:
    return int(math.ceil(constants.c_se * n * log2_raw(n) ** 2))
