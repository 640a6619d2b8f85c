"""Docs-sync checks: ARCHITECTURE.md and docs/cli.md track the code.

CI runs these as its docs check.  They keep the two hand-written documents
honest: every CLI sub-command (including the ones generated from the
experiment registry) must be documented, and the architecture overview
must keep describing the layers and extension points that actually exist.
"""

from pathlib import Path

import pytest

from repro.cli import _BUILTIN_COMMANDS, build_parser, experiment_commands
from repro.objectives.registry import list_objectives, objective_names
from repro.solvers.registry import solver_names

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def architecture_text() -> str:
    path = REPO_ROOT / "ARCHITECTURE.md"
    assert path.is_file(), "ARCHITECTURE.md is missing from the repo root"
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def cli_doc_text() -> str:
    path = REPO_ROOT / "docs" / "cli.md"
    assert path.is_file(), "docs/cli.md is missing"
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def readme_text() -> str:
    path = REPO_ROOT / "README.md"
    assert path.is_file(), "README.md is missing from the repo root"
    return path.read_text(encoding="utf-8")


class TestCliDoc:
    def test_every_subcommand_documented(self, cli_doc_text):
        for name in _BUILTIN_COMMANDS + experiment_commands():
            assert f"`{name}`" in cli_doc_text, (
                f"CLI sub-command {name!r} is registered but not documented in "
                "docs/cli.md -- document it (experiment sub-commands are "
                "generated from the experiment registry)"
            )

    def test_no_phantom_builtins_documented(self, cli_doc_text):
        # The doc's sub-command table links each builtin as [`name`](#name);
        # every such anchor must correspond to a registered sub-command.
        import re

        documented = set(re.findall(r"\[`([a-z_0-9]+)`\]\(#", cli_doc_text))
        registered = set(_BUILTIN_COMMANDS) | set(experiment_commands()) | {"experiment"}
        unknown = documented - registered
        assert not unknown, f"docs/cli.md documents unregistered sub-commands: {unknown}"

    def test_flags_documented(self, cli_doc_text):
        for flag in ("--solver", "--store", "--workers", "--smoke", "--tag",
                     "--broadcast", "--max-sites", "--shard", "--resume",
                     "--output", "--solvers", "--objective", "--compare",
                     "--group-by", "--metric", "--best", "--pareto",
                     "--server", "--shards", "--host", "--port",
                     "--lease-ttl", "--worker", "--campaign", "--poll",
                     "--until-idle", "--max-shards", "--dest",
                     "--fail-on-regression", "--sa-temperature",
                     "--sa-cooling", "--sa-moves-per-temp", "--sa-restarts",
                     "--chunk", "--flush-every", "--progress", "--columns"):
            assert flag in cli_doc_text

    def test_store_actions_documented(self, cli_doc_text):
        for action in ("store info", "store migrate", "store compact",
                       "store reindex"):
            assert action in cli_doc_text

    def test_parser_and_doc_agree(self, cli_doc_text):
        parser = build_parser()
        actions = [
            action for action in parser._subparsers._group_actions
            if hasattr(action, "choices")
        ]
        assert actions, "CLI parser has no sub-commands?"
        for name in actions[0].choices:
            assert f"`{name}`" in cli_doc_text


class TestArchitectureDoc:
    def test_mentions_every_layer_package(self, architecture_text):
        for package in ("core", "soc", "ate", "itc02", "wrapper", "tam", "rpct",
                        "multisite", "optimize", "solvers", "objectives",
                        "analysis", "store", "api", "bench", "experiments",
                        "reporting"):
            assert package in architecture_text, (
                f"ARCHITECTURE.md no longer mentions the {package!r} package"
            )

    def test_mentions_builtin_subcommands(self, architecture_text):
        for name in _BUILTIN_COMMANDS:
            assert name in architecture_text, (
                f"ARCHITECTURE.md no longer mentions the {name!r} sub-command"
            )

    def test_mentions_registered_solvers(self, architecture_text):
        for name in solver_names():
            assert name in architecture_text

    def test_describes_bound_certificates(self, architecture_text):
        for anchor in ("bounds.py", "BoundCertificate", "lower_bound",
                       "with_solver_options"):
            assert anchor in architecture_text

    def test_describes_cache_tiers(self, architecture_text):
        for anchor in ("canonical_key", "digest", "make_record", "evaluate",
                       "STORE_FORMAT", "register_solver", "register_experiment",
                       "register_storable", "register_catalog_soc",
                       "register_objective"):
            assert anchor in architecture_text

    def test_mentions_registered_objectives(self, architecture_text):
        for name in objective_names():
            assert name in architecture_text, (
                f"ARCHITECTURE.md no longer mentions the {name!r} objective"
            )

    def test_describes_grid_and_campaign_layer(self, architecture_text):
        for anchor in ("SweepGrid", "run_iter", "shard", "catalog",
                       "synthetic:<seed>:<modules>", "campaign"):
            assert anchor in architecture_text

    def test_describes_service_layer(self, architecture_text):
        for anchor in ("GridSpec", "CampaignServer", "ServiceClient",
                       "run_worker", "lease", "heartbeat", "--lease-ttl",
                       "pending → leased → done", "/records/query",
                       "/records/batch"):
            assert anchor in architecture_text

    def test_describes_execution_plan(self, architecture_text):
        for anchor in ("SweepPlan", "plan.py", "chunk_size", "structure_key",
                       "permutation", "flush_every", "put_records"):
            assert anchor in architecture_text

    def test_describes_packed_store(self, architecture_text):
        for anchor in ("PackedResultStore", "packed.manifest", "index.sqlite",
                       "open_store", "migrate", "compact", "reindex",
                       "orphaned", "source of truth"):
            assert anchor in architecture_text

    def test_describes_columnar_sidecars(self, architecture_text):
        for anchor in (".cols", "columns.py",
                       "reindex --columns", "flush-before-index",
                       "short row", "AnalysisRecord", "derived data"):
            assert anchor in architecture_text


class TestReadme:
    def test_links_architecture_and_cli_docs(self, readme_text):
        assert "ARCHITECTURE.md" in readme_text
        assert "docs/cli.md" in readme_text

    def test_mentions_bench_and_store(self, readme_text):
        assert "bench" in readme_text
        assert 'Engine(store="~/.cache/repro-store")' in readme_text
        assert "packed store" in readme_text

    def test_distributed_campaign_quickstart(self, readme_text):
        for anchor in ("repro serve", "repro work", "--server",
                       "store migrate"):
            assert anchor in readme_text


class TestObjectivesDoc:
    """docs/objectives.md stays in sync with the objective registry."""

    @pytest.fixture(scope="class")
    def objectives_text(self) -> str:
        path = REPO_ROOT / "docs" / "objectives.md"
        assert path.is_file(), "docs/objectives.md is missing"
        return path.read_text(encoding="utf-8")

    def test_every_registered_objective_documented(self, objectives_text):
        for spec in list_objectives():
            assert f"`{spec.name}`" in objectives_text, (
                f"objective {spec.name!r} is registered but not documented in "
                "docs/objectives.md -- add it to the built-ins table"
            )

    def test_documented_senses_match_registry(self, objectives_text):
        # Each built-in's table row must state the registered sense.
        for spec in list_objectives():
            row = next(
                (line for line in objectives_text.splitlines()
                 if line.startswith(f"| `{spec.name}`")),
                None,
            )
            assert row is not None, f"no table row for {spec.name!r}"
            assert f"| {spec.sense} |" in row, (
                f"docs/objectives.md documents the wrong sense for {spec.name!r}"
            )

    def test_registration_walkthrough_present(self, objectives_text):
        assert "register_objective" in objectives_text
        assert "sense" in objectives_text

    def test_readme_or_architecture_link(self, objectives_text):
        architecture = (REPO_ROOT / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert "docs/objectives.md" in architecture
