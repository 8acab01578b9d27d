"""Dry-run complexity audits: planned query counts with zero execution.

The written-constant ("paper") profile is not executable at desk scale,
so its budgets are checked arithmetically: nominal plan sizes against the
target growth rates.  The nominal estimator count charges every sketch
cell at every level, matching how the target rate counts them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import params
from .params import Constants


def ns_planned_queries(n: int, epsilon: float, delta: float,
                       profile: str = params.PAPER,
                       constants: Constants = Constants()) -> int:
    return params.ns_plan_size(n, epsilon, delta, profile, constants)


def ser_planned_queries(domain: int, delta: float,
                        constants: Constants = Constants()) -> int:
    return params.ser_plan_size(domain, delta, constants)


def estimator_planned_queries(n: int, epsilon: float,
                              profile: str = params.PAPER,
                              constants: Constants = Constants()) -> int:
    """Nominal estimator plan size: levels x reps x cells x inner NS plan."""
    eps_scaled, _, _, top = params.level_ladder(n, epsilon, profile)
    reps = params.deg_reps(n)
    cells = params.deg_parts(n, eps_scaled, False, constants)
    inner = params.ns_plan_size(n, min(eps_scaled, 0.5),
                                params.deg_delta_inner(n), profile, constants)
    return (top + 1) * reps * cells * inner + params.coarse_plan_size(n)


@dataclass
class AuditRow:
    n: int
    planned: int
    target: float
    ratio: float


def ns_target(n: int, epsilon: float, delta: float) -> float:
    return (epsilon ** -2 * params.log2_raw(n)
            * math.log(params.log2_raw(n) / delta))


def ser_target(domain: int, delta: float) -> float:
    return math.log2(max(2, domain)) ** 2 * math.log(1.0 / delta)


def estimator_target(n: int, epsilon: float) -> float:
    return epsilon ** -5 * params.log2_raw(n) ** 5


def ns_audit(ns_grid, epsilon: float, delta: float,
             constants: Constants = Constants()) -> list[AuditRow]:
    rows = []
    for n in ns_grid:
        planned = ns_planned_queries(n, epsilon, delta, params.PAPER, constants)
        target = ns_target(n, epsilon, delta)
        rows.append(AuditRow(n=n, planned=planned, target=target,
                             ratio=planned / target))
    return rows


def ser_audit(domain_grid, delta: float,
              constants: Constants = Constants()) -> list[AuditRow]:
    rows = []
    for domain in domain_grid:
        planned = ser_planned_queries(domain, delta, constants)
        target = ser_target(domain, delta)
        rows.append(AuditRow(n=domain, planned=planned, target=target,
                             ratio=planned / target))
    return rows


def estimator_audit(ns_grid, epsilon: float,
                    constants: Constants = Constants()) -> list[AuditRow]:
    rows = []
    for n in ns_grid:
        planned = estimator_planned_queries(n, epsilon, params.PAPER,
                                            constants)
        target = estimator_target(n, epsilon)
        rows.append(AuditRow(n=n, planned=planned, target=target,
                             ratio=planned / target))
    return rows


def ratio_band(rows: list[AuditRow]) -> float:
    ratios = [r.ratio for r in rows]
    return max(ratios) / min(ratios)


def round1_planned_queries(n: int, constants: Constants = Constants()) -> int:
    """Dry-run size of the connectivity round-1 recovery plan."""
    return n * params.ser_queries(n - 1, params.round1_reps(n, constants))


def round1_polylog(n: int, constants: Constants = Constants()) -> float:
    """Known polylog factor of the round-1 plan, for exponent fitting."""
    return round1_planned_queries(n, constants) / n
