"""Pluggable solver backends for the test-infrastructure design problem.

This package splits the optimisation stack into three explicit layers:

* **problem model** (:mod:`repro.solvers.problem`) -- a frozen
  :class:`TestInfraProblem` (SOC + ATE + probe station + config) consumed
  declaratively by every backend, and the :class:`SolverSolution` they
  return;
* **solver backends** (:mod:`repro.solvers.registry` plus one module per
  backend) -- ``"goel05"`` (the paper's greedy two-step, the default),
  ``"exhaustive"`` (exact partition enumeration for small SOCs, the
  correctness oracle) and ``"restart"`` (deterministic randomized
  multi-start greedy), each registered with :func:`register_solver`;
* **evaluation kernel** (:mod:`repro.solvers.evaluate`) -- the
  per-``(design, sites)`` throughput/economics evaluation shared by Step 2,
  the experiments and every backend.

Select a backend through ``Scenario(solver="restart")``, the
``--solver`` CLI flag, or directly via :func:`solve`; ``python -m repro
solvers`` lists what is registered.
"""

from repro.solvers.evaluate import (
    EvaluatedPoint,
    KernelCacheInfo,
    PointMemo,
    evaluate_point,
    evaluate_points,
    objective_value,
    scenario_for,
    timing_for,
)
from repro.solvers.problem import SolverSolution, TestInfraProblem, make_problem
from repro.solvers.registry import (
    DEFAULT_SOLVER,
    Solver,
    get_solver,
    list_solvers,
    register_solver,
    solve,
    solver_names,
)

__all__ = [
    "DEFAULT_SOLVER",
    "EvaluatedPoint",
    "KernelCacheInfo",
    "PointMemo",
    "Solver",
    "SolverSolution",
    "TestInfraProblem",
    "evaluate_point",
    "evaluate_points",
    "get_solver",
    "list_solvers",
    "make_problem",
    "objective_value",
    "register_solver",
    "scenario_for",
    "solve",
    "solver_names",
    "timing_for",
]
