"""The paper's greedy two-step algorithm as a solver backend (``"goel05"``).

This is the headline heuristic of Goel & Marinissen (DATE 2005), moved here
from :mod:`repro.optimize.two_step` (which remains as a thin compatibility
shim): Step 1 designs the minimum-channel infrastructure with the greedy
channel-group assignment, Step 2 linearly searches the site count from the
maximum multi-site down and widens the design to each candidate's channel
budget.
"""

from __future__ import annotations

from dataclasses import replace

from repro.optimize.result import TwoStepResult
from repro.optimize.step1 import run_step1, step1_result_from_architecture
from repro.optimize.step2 import run_step2
from repro.solvers.problem import TestInfraProblem
from repro.solvers.registry import register_solver
from repro.solvers.structure import problem_structure


@register_solver(
    "goel05",
    title="Greedy two-step heuristic of the paper (default)",
    description="Step 1 greedy channel-group assignment, Step 2 linear "
    "site-count search; the algorithm of Goel & Marinissen (DATE 2005)",
)
def solve_goel05(problem: TestInfraProblem) -> TwoStepResult:
    """Run the paper's two-step algorithm on ``problem``.

    The Step-1 design depends only on the SOC, the ATE channel count and
    the depth, so it is asked of the active problem structure
    (:mod:`repro.solvers.structure`): Step 1 runs only for a channel cap
    the structure has not seen, and a known design is packaged with
    :func:`~repro.optimize.step1.step1_result_from_architecture`, whose
    feasibility checks and maximum multi-site are per scenario.

    Raises
    ------
    InfeasibleDesignError
        When the SOC cannot be tested on the target ATE at all.
    """
    soc, ate, probe_station, config = (
        problem.soc, problem.ate, problem.probe_station, problem.config
    )
    structure = problem_structure(soc, ate.depth)
    design = structure.design(ate.channels)
    if design is None:
        step1 = run_step1(soc, ate, probe_station, config)
        design = structure.add_design(ate.channels, step1.architecture)
        if design is not step1.architecture:
            step1 = replace(step1, architecture=design)
    else:
        step1 = step1_result_from_architecture(soc, design, ate, probe_station, config)
    return run_step2(step1, problem.objective)
