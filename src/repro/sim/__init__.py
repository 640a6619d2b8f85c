"""Simulation substrate: scan-shift simulator, wafer map, Monte-Carlo flow.

This package is a validation instrument, not part of the optimisation
path: no solver, engine or store code imports it.  It simulates what the
paper's Section-4 model computes in closed form -- wafers probed
touchdown by touchdown, scan shifts cycle by cycle -- so the model can be
checked against it.  ``tests/test_sim_montecarlo.py`` does exactly that:
``test_ideal_flow_matches_analytic_throughput`` checks the analytic
multi-site throughput against a simulated flow, and
``test_unique_throughput_close_to_exact_model`` the re-test model's exact
unique-device throughput against the simulated flow's.  ``examples/custom_soc_flow.py`` uses it to
show a design's simulated wafer flow.
"""

from repro.sim.scan_sim import (
    ShiftTrace,
    GroupTrace,
    ArchitectureTrace,
    simulate_module_test,
    simulate_module_at_width,
    simulate_architecture,
)
from repro.sim.wafer import WaferMap, TouchdownPlan
from repro.sim.montecarlo import FlowParameters, FlowResult, simulate_flow

__all__ = [
    "ShiftTrace",
    "GroupTrace",
    "ArchitectureTrace",
    "simulate_module_test",
    "simulate_module_at_width",
    "simulate_architecture",
    "WaferMap",
    "TouchdownPlan",
    "FlowParameters",
    "FlowResult",
    "simulate_flow",
]
