"""Dry-run complexity audits: planned query counts with zero execution.

The written-constant ("paper") profile is not executable at desk scale
(no run path takes a profile), so its budgets are checked here
arithmetically: nominal plan sizes against the target growth rates.
The nominal estimator count charges every sketch cell at every level,
matching how the target rate counts them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import params
from .degree_est import sketch_ns
from .nbr_size import NsParams
from .params import Constants


def ns_planned_queries(n: int, epsilon: float, delta: float,
                       profile: str = params.PAPER,
                       constants: Constants = Constants()) -> int:
    return NsParams.create(n, epsilon, delta, profile, constants).queries


def estimator_planned_queries(n: int, epsilon: float,
                              profile: str = params.PAPER,
                              constants: Constants = Constants()) -> int:
    """Nominal estimator plan size: levels x reps x cells x inner NS plan."""
    eps_scaled, _, _, top = params.level_ladder(n, epsilon, profile)
    reps = params.deg_reps(n)
    cells = params.deg_parts(n, eps_scaled, False, constants)
    inner = sketch_ns(n, eps_scaled, profile, constants).queries
    return (top + 1) * reps * cells * inner + params.coarse_plan_size(n)


@dataclass
class AuditRow:
    n: int
    planned: int
    target: float

    @property
    def ratio(self) -> float:
        return self.planned / self.target


def ns_target(n: int, epsilon: float, delta: float) -> float:
    return (epsilon ** -2 * params.log2_raw(n)
            * math.log(params.log2_raw(n) / delta))


def ser_target(domain: int, delta: float) -> float:
    return math.log2(max(2, domain)) ** 2 * math.log(1.0 / delta)


def estimator_target(n: int, epsilon: float) -> float:
    return epsilon ** -5 * params.log2_raw(n) ** 5


def _rows(grid, planned, target) -> list[AuditRow]:
    return [AuditRow(n=n, planned=planned(n), target=target(n)) for n in grid]


def ns_audit(ns_grid, epsilon: float, delta: float,
             constants: Constants = Constants()) -> list[AuditRow]:
    return _rows(ns_grid,
                 lambda n: ns_planned_queries(n, epsilon, delta, params.PAPER,
                                              constants),
                 lambda n: ns_target(n, epsilon, delta))


def ser_audit(domain_grid, delta: float,
              constants: Constants = Constants()) -> list[AuditRow]:
    return _rows(domain_grid,
                 lambda d: params.ser_plan_size(d, delta, constants),
                 lambda d: ser_target(d, delta))


def estimator_audit(ns_grid, epsilon: float,
                    constants: Constants = Constants()) -> list[AuditRow]:
    return _rows(ns_grid,
                 lambda n: estimator_planned_queries(n, epsilon, params.PAPER,
                                                     constants),
                 lambda n: estimator_target(n, epsilon))


def ratio_band(rows: list[AuditRow]) -> float:
    ratios = [r.ratio for r in rows]
    return max(ratios) / min(ratios)


def round1_planned_queries(n: int, constants: Constants = Constants()) -> int:
    """Dry-run size of the connectivity round-1 recovery plan."""
    return n * params.ser_queries(n - 1, params.round1_reps(n, constants))
