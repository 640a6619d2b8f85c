"""Simulated-annealing solver backend (``"simulated_annealing"``).

The greedy backends (``goel05``, ``restart``) only ever see architectures
the paper's constructive assignment can produce.  This backend searches the
design space directly: starting from the paper's Step-1 design it walks
over ``(architecture, sites)`` states with a small move set, accepting
worsening moves with the classic Metropolis probability under a
geometrically cooled temperature.  Every state evaluation goes through one
per-run :class:`~repro.solvers.evaluate.PointMemo` of the kernel
(:mod:`repro.solvers.evaluate`), shared by all chains of the run, so a
revisited state -- an undone width move above all -- is served, not
recomputed.  The final packaging of the best partitions found uses the
same Step-2 sweep as every other backend.

Moves
-----
* **width**: grow or shrink one channel group by one TAM wire
  (:meth:`~repro.solvers.evaluate.PointMemo.move`);
* **reassign**: move one module into another -- or a brand new -- channel
  group, re-minimising the affected groups' widths;
* **swap**: exchange two modules between their channel groups;
* **sites**: step the evaluated site count by one.

Determinism
-----------
All randomness is drawn from one :class:`repro.core.rng.DeterministicRng`
stream seeded with the ``seed`` knob (default :data:`DEFAULT_SEED`), and
candidate ranking matches the other backends' rank tuple, so repeated runs
-- including parallel ``Engine.run_batch`` workers -- are bit-identical.
The first candidate packaged for the final comparison is always the plain
``goel05`` result, so the backend is never worse than the paper's
heuristic.

Knobs
-----
``temperature`` (start), ``cooling`` (geometric factor), ``moves_per_temp``
(proposals per temperature), ``restarts`` (independent chains) and ``seed``
arrive through :attr:`~repro.solvers.problem.TestInfraProblem.
solver_options`, i.e. through ``Scenario.with_solver_options`` / the
``repro design --sa-*`` flags; unknown names are rejected.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.exceptions import ConfigurationError, InfeasibleDesignError
from repro.core.rng import DeterministicRng
from repro.objectives.registry import get_objective
from repro.optimize.channels import max_channels_per_site, max_sites
from repro.optimize.result import TwoStepResult
from repro.optimize.step1 import step1_result_from_architecture
from repro.optimize.step2 import run_step2
from repro.soc.module import Module
from repro.soc.soc import Soc
from repro.solvers.evaluate import EvaluatedPoint, PointMemo
from repro.solvers.exhaustive import _minimal_group
from repro.solvers.problem import TestInfraProblem
from repro.solvers.registry import register_solver
from repro.tam.architecture import TestArchitecture
from repro.tam.assignment import assign_modules, minimum_widths
from repro.tam.channel_group import ChannelGroup

#: Default starting temperature of the relative-delta Metropolis rule.
DEFAULT_TEMPERATURE = 1.0

#: Default geometric cooling factor per temperature level.
DEFAULT_COOLING = 0.85

#: Default number of proposed moves at each temperature level.
DEFAULT_MOVES_PER_TEMP = 30

#: Default number of independent annealing chains.
DEFAULT_RESTARTS = 1

#: Seed of the proposal stream; fixed so every run is bit-identical.
DEFAULT_SEED = 20050307

#: Temperature below which the chain stops (the rule is greedy there anyway).
MIN_TEMPERATURE = 1e-2

#: The knob names accepted through ``Scenario`` solver options.
KNOB_NAMES = ("temperature", "cooling", "moves_per_temp", "restarts", "seed")


def cooling_schedule(
    temperature: float = DEFAULT_TEMPERATURE,
    cooling: float = DEFAULT_COOLING,
    min_temperature: float = MIN_TEMPERATURE,
) -> tuple[float, ...]:
    """The geometric temperature ladder ``T, T*c, T*c^2, ... > min``.

    Raises :class:`~repro.core.exceptions.ConfigurationError` for
    non-positive temperatures or a cooling factor outside ``(0, 1)``.
    """
    if temperature <= 0:
        raise ConfigurationError(f"SA temperature must be positive, got {temperature}")
    if not 0.0 < cooling < 1.0:
        raise ConfigurationError(f"SA cooling factor must be in (0, 1), got {cooling}")
    if min_temperature <= 0:
        raise ConfigurationError(
            f"SA minimum temperature must be positive, got {min_temperature}"
        )
    ladder = []
    current = temperature
    while current > min_temperature:
        ladder.append(current)
        current *= cooling
    return tuple(ladder)


def acceptance_probability(delta: float, temperature: float, scale: float) -> float:
    """Metropolis acceptance probability for a signed-score change ``delta``.

    Improvements (``delta >= 0``) are always accepted.  Worsening moves are
    accepted with ``exp(delta / (temperature * scale))`` where ``scale``
    normalises the objective's magnitude (the caller passes the current
    score's magnitude), so one temperature ladder works for objectives
    whose values differ by orders of magnitude.  At ``temperature <= 0``
    the rule degenerates to pure greedy descent.
    """
    if delta >= 0:
        return 1.0
    if temperature <= 0:
        return 0.0
    scaled = delta / (temperature * max(scale, 1e-300))
    if scaled < -700.0:  # exp() underflow guard
        return 0.0
    return math.exp(scaled)


def _parse_knobs(problem: TestInfraProblem) -> dict:
    """Validate the problem's solver options into the SA knob dict."""
    options = problem.options_dict()
    unknown = sorted(set(options) - set(KNOB_NAMES))
    if unknown:
        raise ConfigurationError(
            f"unknown simulated_annealing option(s) {unknown}; "
            f"known: {', '.join(KNOB_NAMES)}"
        )
    knobs = {
        "temperature": options.get("temperature", DEFAULT_TEMPERATURE),
        "cooling": options.get("cooling", DEFAULT_COOLING),
        "moves_per_temp": options.get("moves_per_temp", DEFAULT_MOVES_PER_TEMP),
        "restarts": options.get("restarts", DEFAULT_RESTARTS),
        "seed": options.get("seed", DEFAULT_SEED),
    }
    for name in ("temperature", "cooling"):
        if isinstance(knobs[name], bool) or not isinstance(knobs[name], (int, float)):
            raise ConfigurationError(f"SA option {name!r} must be a number, got {knobs[name]!r}")
        knobs[name] = float(knobs[name])
    for name in ("moves_per_temp", "restarts", "seed"):
        if isinstance(knobs[name], bool) or not isinstance(knobs[name], int):
            raise ConfigurationError(f"SA option {name!r} must be an integer, got {knobs[name]!r}")
    if knobs["moves_per_temp"] < 1:
        raise ConfigurationError(
            f"SA option 'moves_per_temp' must be >= 1, got {knobs['moves_per_temp']}"
        )
    if knobs["restarts"] < 1:
        raise ConfigurationError(f"SA option 'restarts' must be >= 1, got {knobs['restarts']}")
    return knobs


def _rebuilt_groups(
    blocks: Sequence[Sequence[Module]],
    widths: dict[str, int],
    depth: int,
    width_budget: int,
) -> tuple[ChannelGroup, ...] | None:
    """Channel groups for ``blocks``, each at its minimal feasible width.

    Returns ``None`` when some block cannot fit the depth within the
    remaining width budget (the proposal is then rejected).
    """
    groups: list[ChannelGroup] = []
    remaining = width_budget
    for index, block in enumerate(blocks):
        group = _minimal_group(block, index, widths, depth, remaining)
        if group is None:
            return None
        groups.append(group)
        remaining -= group.width
    return tuple(groups)


class _Chain:
    """One annealing chain over ``(architecture, sites)`` states."""

    def __init__(
        self,
        problem: TestInfraProblem,
        start: TestArchitecture,
        rng: DeterministicRng,
        widths: dict[str, int],
        memo: PointMemo,
    ) -> None:
        self.problem = problem
        self.rng = rng
        self.widths = widths
        self.memo = memo
        self.soc = problem.soc
        self.modules = problem.soc.modules
        config = problem.config
        upper = max_sites(problem.ate.channels, start.ate_channels, config.broadcast)
        if config.max_sites is not None:
            upper = min(upper, config.max_sites)
        lower = max(1, config.min_sites)
        if upper < lower:
            raise InfeasibleDesignError(
                f"SOC {self.soc.name!r} supports at most {upper} site(s), below the "
                f"configured minimum of {lower}"
            )
        self.min_sites = lower
        self.current = memo.point(start, upper)
        self.best = self.current

    # ------------------------------------------------------------------
    # State bookkeeping
    # ------------------------------------------------------------------
    def _site_cap(self, architecture: TestArchitecture) -> int:
        cap = max_sites(
            self.problem.ate.channels, architecture.ate_channels, self.problem.config.broadcast
        )
        if self.problem.config.max_sites is not None:
            cap = min(cap, self.problem.config.max_sites)
        return cap

    def _budget_ok(self, architecture: TestArchitecture, sites: int) -> bool:
        """Does the architecture fit the ATE and the per-site channel budget?"""
        if architecture.test_time_cycles > self.problem.ate.depth:
            return False
        budget = max_channels_per_site(
            self.problem.ate.channels, sites, self.problem.config.broadcast
        )
        return architecture.ate_channels <= min(budget, self.problem.ate.channels)

    # ------------------------------------------------------------------
    # Move proposals (each returns a candidate point or None to reject)
    # ------------------------------------------------------------------
    def _propose_width(self) -> EvaluatedPoint | None:
        module = self.modules[self.rng.randint(0, len(self.modules) - 1)]
        delta = 1 if self.rng.randint(0, 1) else -1
        try:
            candidate = self.memo.move(self.current, module, delta)
        except ConfigurationError:  # width would drop to zero
            return None
        if not self._budget_ok(candidate.architecture, candidate.sites):
            return None
        return candidate

    def _blocks(self) -> list[list[Module]]:
        return [list(group.modules) for group in self.current.architecture.groups]

    def _propose_reassign(self) -> EvaluatedPoint | None:
        blocks = self._blocks()
        source = self.rng.randint(0, len(blocks) - 1)
        module = blocks[source].pop(self.rng.randint(0, len(blocks[source]) - 1))
        if not blocks[source]:
            del blocks[source]
        # Targets: every remaining group, or a brand new singleton group.
        target = self.rng.randint(0, len(blocks))
        if target == len(blocks):
            if not blocks and len(self.current.architecture.groups) == 1:
                return None  # single-module SOC: the move is the identity
            blocks.append([module])
        else:
            blocks[target].append(module)
        return self._evaluate_blocks(blocks)

    def _propose_swap(self) -> EvaluatedPoint | None:
        blocks = self._blocks()
        if len(blocks) < 2:
            return None
        first = self.rng.randint(0, len(blocks) - 1)
        second = self.rng.randint(0, len(blocks) - 2)
        if second >= first:
            second += 1
        i = self.rng.randint(0, len(blocks[first]) - 1)
        j = self.rng.randint(0, len(blocks[second]) - 1)
        blocks[first][i], blocks[second][j] = blocks[second][j], blocks[first][i]
        return self._evaluate_blocks(blocks)

    def _evaluate_blocks(self, blocks: list[list[Module]]) -> EvaluatedPoint | None:
        groups = _rebuilt_groups(blocks, self.widths, self.problem.ate.depth,
                                 self.problem.width_budget)
        if groups is None:
            return None
        architecture = TestArchitecture(soc=self.soc, groups=groups, depth=self.problem.ate.depth)
        cap = self._site_cap(architecture)
        if cap < self.min_sites:
            return None
        sites = min(self.current.sites, cap)
        if not self._budget_ok(architecture, sites):
            return None
        return self.memo.point(architecture, sites)

    def _propose_sites(self) -> EvaluatedPoint | None:
        delta = 1 if self.rng.randint(0, 1) else -1
        sites = self.current.sites + delta
        if sites < self.min_sites or sites > self._site_cap(self.current.architecture):
            return None
        if not self._budget_ok(self.current.architecture, sites):
            return None
        return self.memo.point(self.current.architecture, sites)

    _MOVES = ("width", "reassign", "swap", "sites")

    def propose(self) -> EvaluatedPoint | None:
        """Draw one move from the move set and build its candidate state."""
        move = self._MOVES[self.rng.randint(0, len(self._MOVES) - 1)]
        if move == "width":
            return self._propose_width()
        if move == "reassign":
            return self._propose_reassign()
        if move == "swap":
            return self._propose_swap()
        return self._propose_sites()

    # ------------------------------------------------------------------
    # The annealing loop
    # ------------------------------------------------------------------
    def run(self, temperature: float, cooling: float, moves_per_temp: int) -> EvaluatedPoint:
        for level in cooling_schedule(temperature, cooling):
            for _ in range(moves_per_temp):
                candidate = self.propose()
                if candidate is None:
                    continue
                delta = candidate.score - self.current.score
                scale = max(abs(self.current.score), abs(candidate.score))
                if self.rng.uniform(0.0, 1.0) < acceptance_probability(delta, level, scale):
                    self.current = candidate
                    if candidate.score > self.best.score:
                        self.best = candidate
        return self.best


def _normalized(architecture: TestArchitecture, widths: dict[str, int], depth: int,
                width_budget: int) -> TestArchitecture | None:
    """Shrink every group back to its minimal feasible width.

    The walk may leave groups wider than necessary; Step 2 re-widens to
    each site count's budget anyway, so the *partition* is what the chain
    really decided.  Normalising maximises the Step-2 site range and makes
    the final candidate independent of leftover walk state.
    """
    blocks = [list(group.modules) for group in architecture.groups]
    groups = _rebuilt_groups(blocks, widths, depth, width_budget)
    if groups is None:  # pragma: no cover - walk states are budget-checked
        return None
    return TestArchitecture(soc=architecture.soc, groups=groups, depth=depth)


def solve_annealed(
    problem: TestInfraProblem,
    temperature: float = DEFAULT_TEMPERATURE,
    cooling: float = DEFAULT_COOLING,
    moves_per_temp: int = DEFAULT_MOVES_PER_TEMP,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> TwoStepResult:
    """Anneal ``problem`` with explicit knobs.

    Runs ``restarts`` independent chains (the first from the paper's
    Step-1 design, later ones from shuffled greedy assignments), packages
    each chain's best partition -- plus the plain ``goel05`` design --
    through the full Step-2 sweep, and returns the best candidate by the
    standard solver rank tuple.

    Raises
    ------
    InfeasibleDesignError
        When the SOC cannot be tested on the target ATE at all.
    """
    cooling_schedule(temperature, cooling)  # validate the knob pair eagerly
    if moves_per_temp < 1:
        raise ConfigurationError(f"moves_per_temp must be >= 1, got {moves_per_temp}")
    if restarts < 1:
        raise ConfigurationError(f"restart count must be >= 1, got {restarts}")

    soc, ate, config = problem.soc, problem.ate, problem.config
    objective = get_objective(problem.objective)
    width_budget = problem.width_budget
    if width_budget <= 0:
        raise ConfigurationError(f"ATE must provide at least 2 channels, got {ate.channels}")
    widths = minimum_widths(soc, ate.depth, width_budget)

    rng = DeterministicRng(seed)
    memo = PointMemo(ate, problem.probe_station, config, problem.objective)
    candidates: list[TestArchitecture] = []
    first_error: InfeasibleDesignError | None = None

    from repro.tam.assignment import design_architecture

    for chain_index in range(restarts):
        try:
            if chain_index == 0:
                start = design_architecture(soc, ate.channels, ate.depth)
            else:
                order = tuple(rng.shuffled(soc.modules))
                start = assign_modules(soc, order, widths, ate.channels, ate.depth)
            chain = _Chain(problem, start, rng, widths, memo)
        except InfeasibleDesignError as error:
            first_error = first_error or error
            continue
        if chain_index == 0:
            candidates.append(start)  # the plain goel05 design, always compared
        best_point = chain.run(temperature, cooling, moves_per_temp)
        normalized = _normalized(best_point.architecture, widths, ate.depth, width_budget)
        if normalized is not None and normalized not in candidates:
            candidates.append(normalized)

    best: TwoStepResult | None = None
    best_rank: tuple[float, int, int] | None = None
    for architecture in candidates:
        try:
            step1 = step1_result_from_architecture(
                soc, architecture, ate, problem.probe_station, config
            )
            candidate = run_step2(step1, objective.name)
        except InfeasibleDesignError as error:
            first_error = first_error or error
            continue
        rank = (
            objective.signed(candidate.optimal_throughput),
            -step1.channels_per_site,
            -step1.test_time_cycles,
        )
        if best_rank is None or rank > best_rank:
            best, best_rank = candidate, rank

    if best is None:
        raise first_error or InfeasibleDesignError(
            f"SOC {soc.name!r} cannot be tested on {ate.channels} channels at depth {ate.depth}"
        )
    return best


@register_solver(
    "simulated_annealing",
    title="Simulated annealing over channel-group partitions",
    description="Metropolis walk over module reassignment, group swap, "
    "width and site-count moves with geometric cooling; seeded and "
    "deterministic, never worse than goel05",
)
def solve_simulated_annealing(problem: TestInfraProblem) -> TwoStepResult:
    """Anneal with knobs taken from the problem's solver options."""
    return solve_annealed(problem, **_parse_knobs(problem))
