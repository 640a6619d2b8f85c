"""Tests of the top-level public API surface (``import repro``)."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.9.0"

    def test_setup_py_reads_the_package_version(self):
        # Runs setup.py's ``read_version`` alone, so no setuptools is needed.
        source = (ROOT / "setup.py").read_text("utf-8")
        assert not re.search(r"version=['\"]", source)
        tree = ast.parse(source)
        (reader,) = [
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "read_version"
        ]
        namespace = {"re": re, "Path": Path, "__file__": str(ROOT / "setup.py")}
        exec(compile(ast.Module(body=[reader], type_ignores=[]), "setup.py", "exec"), namespace)
        assert namespace["read_version"]() == repro.__version__

    def test_sweep_and_analysis_never_import_numpy(self):
        # A meta-path finder refuses and records every numpy import, so the
        # check holds whether or not numpy is installed, and an optional
        # ``try: import numpy`` would be caught too.
        script = """
import sys

attempts = []


class RefuseNumpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            attempts.append(name)
            raise ImportError(f"numpy import refused: {name}")
        return None


sys.meta_path.insert(0, RefuseNumpy)

from repro import Engine, Scenario, reference_test_cell
from repro.analysis import best_table, group_summary, pareto_table, records_from_results
cell = reference_test_cell(channels=256, depth_m=1.0)
grid = Scenario.sweep("synthetic:7:6", cell, channels=[128, 256])
assert len(grid) == 2
records = records_from_results(Engine().run_batch(grid, workers=1))
for table in (
    group_summary(records, "channels", "cost"),
    best_table(records, "throughput"),
    pareto_table(records, "time", "cost"),
):
    table.render()
assert not attempts, attempts
assert "numpy" not in sys.modules
"""
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_headline_entry_points_exposed(self):
        for name in (
            "optimize_multisite",
            "design_step1_only",
            "load_benchmark",
            "make_pnx8550",
            "design_architecture",
            "design_wrapper",
            "build_schedule",
            "AteSpec",
            "ProbeStation",
            "OptimizationConfig",
            "SweepGrid",
            "synthetic_family",
            "register_catalog_soc",
        ):
            assert name in repro.__all__

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.soc",
            "repro.itc02",
            "repro.wrapper",
            "repro.tam",
            "repro.rpct",
            "repro.ate",
            "repro.multisite",
            "repro.optimize",
            "repro.solvers",
            "repro.baselines",
            "repro.sim",
            "repro.schedule",
            "repro.experiments",
            "repro.reporting",
            "repro.cli",
        ],
    )
    def test_subpackages_importable_and_have_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} needs a module docstring"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.soc",
            "repro.wrapper",
            "repro.tam",
            "repro.multisite",
            "repro.optimize",
            "repro.solvers",
            "repro.baselines",
            "repro.sim",
            "repro.itc02",
            "repro.reporting",
        ],
    )
    def test_subpackage_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_end_to_end_via_public_names_only(self):
        soc = repro.load_benchmark("d695")
        ate = repro.AteSpec(channels=64, depth=200_000)
        result = repro.optimize_multisite(soc, ate)
        schedule = repro.build_schedule(result.best.architecture)
        assert schedule.makespan == result.best.test_time_cycles
