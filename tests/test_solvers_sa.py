"""Tests of the simulated-annealing backend's machinery.

The cross-solver contract (feasibility, determinism, bound soundness,
never-worse-than-goel05) lives in ``test_solver_invariants.py``; this file
pins the annealer's own pieces: the cooling schedule, the Metropolis
acceptance rule, knob validation, and move reversibility through the
evaluation kernel's memo.
"""

import pytest

from repro.core.exceptions import ConfigurationError, InfeasibleDesignError
from repro.core.units import kilo_vectors
from repro.solvers import evaluate
from repro.solvers.problem import make_problem
from repro.solvers.registry import solve
from repro.solvers.simulated_annealing import (
    DEFAULT_COOLING,
    DEFAULT_MOVES_PER_TEMP,
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    DEFAULT_TEMPERATURE,
    KNOB_NAMES,
    MIN_TEMPERATURE,
    _parse_knobs,
    acceptance_probability,
    cooling_schedule,
    solve_annealed,
)


class TestCoolingSchedule:
    def test_ladder_is_geometric(self):
        ladder = cooling_schedule(temperature=2.0, cooling=0.5)
        assert ladder[0] == 2.0
        for before, after in zip(ladder, ladder[1:]):
            assert after == pytest.approx(before * 0.5)

    def test_ladder_stops_at_the_minimum_temperature(self):
        ladder = cooling_schedule(temperature=1.0, cooling=0.5, min_temperature=0.1)
        assert all(level > 0.1 for level in ladder)
        assert ladder[-1] * 0.5 <= 0.1

    def test_defaults_produce_a_nontrivial_ladder(self):
        ladder = cooling_schedule()
        assert ladder[0] == DEFAULT_TEMPERATURE
        assert len(ladder) > 10
        assert all(level > MIN_TEMPERATURE for level in ladder)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError, match="temperature"):
            cooling_schedule(temperature=0.0)
        with pytest.raises(ConfigurationError, match="cooling"):
            cooling_schedule(cooling=1.0)
        with pytest.raises(ConfigurationError, match="cooling"):
            cooling_schedule(cooling=0.0)
        with pytest.raises(ConfigurationError, match="minimum temperature"):
            cooling_schedule(min_temperature=0.0)


class TestAcceptanceRule:
    def test_improvements_always_accepted(self):
        assert acceptance_probability(0.0, temperature=1.0, scale=100.0) == 1.0
        assert acceptance_probability(5.0, temperature=1e-9, scale=100.0) == 1.0

    def test_degenerates_to_greedy_at_zero_temperature(self):
        # T -> 0: worsening moves are never accepted, improvements always.
        assert acceptance_probability(-1e-12, temperature=0.0, scale=1.0) == 0.0
        assert acceptance_probability(-100.0, temperature=0.0, scale=1.0) == 0.0
        assert acceptance_probability(100.0, temperature=0.0, scale=1.0) == 1.0

    def test_probability_rises_with_temperature(self):
        probabilities = [
            acceptance_probability(-10.0, temperature, scale=100.0)
            for temperature in (0.01, 0.1, 1.0, 10.0)
        ]
        assert probabilities == sorted(probabilities)
        assert 0.0 < probabilities[0] < probabilities[-1] < 1.0

    def test_scale_normalises_the_objective_magnitude(self):
        # A 1% worsening is equally acceptable at any objective magnitude.
        small = acceptance_probability(-1.0, temperature=0.5, scale=100.0)
        large = acceptance_probability(-1e6, temperature=0.5, scale=1e8)
        assert small == pytest.approx(large)

    def test_huge_worsening_underflows_to_zero(self):
        assert acceptance_probability(-1e9, temperature=1e-6, scale=1.0) == 0.0


class TestKnobParsing:
    def test_defaults_when_no_options(self, tiny_problem):
        knobs = _parse_knobs(tiny_problem)
        assert knobs == {
            "temperature": DEFAULT_TEMPERATURE,
            "cooling": DEFAULT_COOLING,
            "moves_per_temp": DEFAULT_MOVES_PER_TEMP,
            "restarts": DEFAULT_RESTARTS,
            "seed": DEFAULT_SEED,
        }

    def test_options_override_defaults(self, tiny_soc, small_ate):
        problem = make_problem(
            tiny_soc, small_ate, solver_options=(("restarts", 3), ("temperature", 2))
        )
        knobs = _parse_knobs(problem)
        assert knobs["restarts"] == 3
        assert knobs["temperature"] == 2.0
        assert isinstance(knobs["temperature"], float)

    def test_unknown_option_rejected(self, tiny_soc, small_ate):
        problem = make_problem(tiny_soc, small_ate, solver_options=(("reheat", 1),))
        with pytest.raises(ConfigurationError, match="unknown simulated_annealing"):
            _parse_knobs(problem)

    def test_wrong_types_rejected(self, tiny_soc, small_ate):
        for options in (
            (("temperature", "hot"),),
            (("temperature", True),),
            (("moves_per_temp", 2.5),),
            (("restarts", False),),
        ):
            problem = make_problem(tiny_soc, small_ate, solver_options=options)
            with pytest.raises(ConfigurationError, match="SA option"):
                _parse_knobs(problem)

    def test_out_of_range_counts_rejected(self, tiny_soc, small_ate):
        for name in ("moves_per_temp", "restarts"):
            problem = make_problem(tiny_soc, small_ate, solver_options=((name, 0),))
            with pytest.raises(ConfigurationError, match=name):
                _parse_knobs(problem)

    def test_knob_names_cover_the_solve_annealed_signature(self):
        assert set(KNOB_NAMES) == {
            "temperature", "cooling", "moves_per_temp", "restarts", "seed"
        }


class TestMoveReversibility:
    def test_width_move_apply_then_undo_is_identity(self, tiny_problem):
        # The SA width move goes through the run's point memo: undoing a +1
        # width move must return to the exact starting point, served from
        # the memo.
        step1 = solve("goel05", tiny_problem).result.step1
        memo = evaluate.PointMemo(step1.ate, step1.probe_station, step1.config)
        point = memo.point(step1.architecture, 1)
        module = tiny_problem.soc.modules[0]

        moved = memo.move(point, module, +1)
        assert moved.architecture.group_of(module.name).width == (
            point.architecture.group_of(module.name).width + 1
        )

        before = evaluate.cache_info()
        back = memo.move(moved, module, -1)
        after = evaluate.cache_info()
        assert back == point
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_annealing_run_serves_revisited_states(self, tiny_problem):
        before = evaluate.cache_info()
        solve_annealed(tiny_problem, cooling=0.7, moves_per_temp=20)
        assert evaluate.cache_info().hits > before.hits

    def test_shrinking_below_one_wire_rejected(self, tiny_problem):
        step1 = solve("goel05", tiny_problem).result.step1
        memo = evaluate.PointMemo(step1.ate, step1.probe_station, step1.config)
        point = memo.point(step1.architecture, 1)
        module = tiny_problem.soc.modules[0]
        width = point.architecture.group_of(module.name).width
        with pytest.raises(ConfigurationError, match="positive"):
            memo.move(point, module, -width)


class TestSolveAnnealed:
    def test_never_worse_than_goel05(self, medium_soc, small_ate):
        problem = make_problem(medium_soc, small_ate.with_depth(kilo_vectors(128)))
        greedy = solve("goel05", problem).result
        annealed = solve_annealed(problem, cooling=0.7, moves_per_temp=8)
        assert annealed.optimal_throughput >= greedy.optimal_throughput

    def test_repeated_runs_are_bit_identical(self, medium_soc, small_ate):
        problem = make_problem(medium_soc, small_ate.with_depth(kilo_vectors(128)))
        first = solve_annealed(problem, cooling=0.7, moves_per_temp=8, restarts=2)
        second = solve_annealed(problem, cooling=0.7, moves_per_temp=8, restarts=2)
        assert first == second

    def test_seed_changes_exploration_not_feasibility(self, medium_soc, small_ate):
        ate = small_ate.with_depth(kilo_vectors(128))
        problem = make_problem(medium_soc, ate)
        for seed in (1, 2, 3):
            result = solve_annealed(problem, cooling=0.7, moves_per_temp=8, seed=seed)
            assert result.step1.channels_per_site <= ate.channels
            for point in result.points:
                assert point.channels_per_site <= ate.channels

    def test_invalid_knobs_rejected(self, tiny_problem):
        with pytest.raises(ConfigurationError, match="cooling"):
            solve_annealed(tiny_problem, cooling=1.5)
        with pytest.raises(ConfigurationError, match="moves_per_temp"):
            solve_annealed(tiny_problem, moves_per_temp=0)
        with pytest.raises(ConfigurationError, match="restart"):
            solve_annealed(tiny_problem, restarts=0)

    def test_infeasible_soc_raises(self, flat_soc, small_ate):
        cramped = small_ate.with_depth(100)
        with pytest.raises(InfeasibleDesignError):
            solve_annealed(make_problem(flat_soc, cramped))

    def test_registry_backend_reads_knobs_from_solver_options(self, tiny_soc, small_ate):
        explicit = solve_annealed(
            make_problem(tiny_soc, small_ate), temperature=0.5, cooling=0.7,
            moves_per_temp=8,
        )
        via_options = solve(
            "simulated_annealing",
            make_problem(
                tiny_soc,
                small_ate,
                solver_options=(
                    ("cooling", 0.7), ("moves_per_temp", 8), ("temperature", 0.5)
                ),
            ),
        )
        assert via_options.result == explicit

    def test_registry_backend_rejects_unknown_options(self, tiny_soc, small_ate):
        problem = make_problem(tiny_soc, small_ate, solver_options=(("reheat", 1),))
        with pytest.raises(ConfigurationError, match="unknown simulated_annealing"):
            solve("simulated_annealing", problem)
