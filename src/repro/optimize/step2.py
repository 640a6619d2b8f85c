"""Step 2: find the throughput-optimal number of sites (Section 6, Step 2).

Step 1 maximises the number of sites; Step 2 recognises that the maximum
multi-site is not necessarily the *optimal* multi-site.  Giving up a site
frees ATE channels, which -- when redistributed over the remaining sites'
bottleneck channel groups -- shortens the test time per SOC and can raise the
overall throughput.  Step 2 therefore linearly searches the site count from
``n_max`` down to 1, widens the Step-1 architecture to each site count's
channel budget, evaluates the throughput model, and returns the best point.

In the registry layering this module is shared infrastructure, not an entry
point: solver backends (:mod:`repro.solvers.goel05`,
:mod:`repro.solvers.restart`) call :func:`run_step2` on their Step-1
candidates, and the figure experiments call :func:`step1_only_throughput`
for the paper's reference curves.  Evaluation goes through the kernel in
:mod:`repro.solvers.evaluate`, which widens the design once per distinct
per-site channel budget and builds the :class:`SitePoint` rows directly.
Inside a structure scope (:mod:`repro.solvers.structure`: one engine
call, pool chunk or worker chunk) a budget the design was already
widened to -- by another broadcast mode, config or objective of the
same operating point -- is read from the design's budget map instead of
widened again, so each (design, budget) is widened once per scope.
"""

from __future__ import annotations

from repro.core.exceptions import ConfigurationError
from repro.objectives.registry import DEFAULT_OBJECTIVE, get_objective
from repro.optimize.result import SitePoint, Step1Result, TwoStepResult
from repro.solvers.evaluate import evaluate_point, evaluate_points


def evaluate_site_count(
    step1: Step1Result, sites: int, objective: str = DEFAULT_OBJECTIVE
) -> SitePoint:
    """Evaluate one candidate site count, redistributing freed channels.

    The per-site channel budget follows from the site count and the
    broadcast mode; any budget beyond the Step-1 requirement (at least one
    full TAM wire, i.e. two channels) is spent widening the bottleneck
    channel groups.  ``objective`` names the registered objective
    (:mod:`repro.objectives`) the point is valued under.  This is the
    single-point shim over the batch kernel's
    :func:`~repro.solvers.evaluate.evaluate_points`.
    """
    return evaluate_points(step1, (sites,), objective)[0]


def step1_only_throughput(
    step1: Step1Result, sites: int, objective: str = DEFAULT_OBJECTIVE
) -> float:
    """Objective value at ``sites`` sites using the *un-widened* Step-1 design.

    This is the dashed reference line of the paper's Figure 5: what the
    throughput would be for a given multi-site if only Step 1 had been run.
    """
    if sites <= 0:
        raise ConfigurationError(f"site count must be positive, got {sites}")
    return evaluate_point(
        step1.architecture, sites, step1.ate, step1.probe_station, step1.config, objective
    ).objective


def run_step2(step1: Step1Result, objective: str = DEFAULT_OBJECTIVE) -> TwoStepResult:
    """Linear search for the objective-optimal site count.

    Returns a :class:`TwoStepResult` containing every evaluated site count
    (largest first, mirroring the paper's search direction) and the best
    point.  ``objective`` names the registered objective the search
    optimises; its sense decides whether "best" means largest or smallest
    value (the comparison runs on the sense-signed score).  Ties are
    resolved towards the larger site count, because more sites at equal
    value means fewer touchdowns per wafer.

    The whole range is evaluated in one pass through the batch kernel
    (:func:`~repro.solvers.evaluate.evaluate_points`): the descending
    search order makes the incremental channel redistribution exact, so
    each budget plateau only widens the previous plateau's architecture.
    """
    spec = get_objective(objective)
    config = step1.config
    upper = step1.max_sites
    if config.max_sites is not None:
        upper = min(upper, config.max_sites)
    lower = max(1, config.min_sites)
    if lower > upper:
        raise ConfigurationError(
            f"no feasible site count: search range [{lower}, {upper}] is empty"
        )

    points = evaluate_points(step1, range(upper, lower - 1, -1), objective)
    best = max(points, key=lambda point: (spec.signed(point.throughput), point.sites))
    return TwoStepResult(step1=step1, points=points, best=best)
