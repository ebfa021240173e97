"""Doc-drift gates: links, anchors, CLI/docs agreement, knob coverage.

These tests make documentation rot a build failure:

* every relative link and ``#anchor`` in ``docs/`` and the repo-level
  markdown files must resolve (``tools/check_doc_links.py``);
* every CLI subcommand must be documented — in the ``repro.cli`` module
  docstring and in the ``docs/ARCHITECTURE.md`` CLI table — and carry
  parser help text;
* the runtime knobs (env vars, cycle budget) must appear in the single
  knob table ``docs/ARCHITECTURE.md`` maintains;
* every page under ``docs/`` must be reachable from the architecture map;
* every script under ``examples/`` — production callers to
  ``tools/check_reachability.py`` — must run to exit 0 and leave
  ``git status`` as it found it.
"""

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"
CHECKER = REPO_ROOT / "tools" / "check_doc_links.py"
REACHABILITY = REPO_ROOT / "tools" / "check_reachability.py"
EXAMPLES = sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))


def subcommands():
    """Name → subparser for every CLI subcommand."""
    parser = cli.build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("CLI has no subparsers")


class TestLinkChecker:
    def test_repo_docs_have_no_broken_links(self):
        result = subprocess.run(
            [sys.executable, str(CHECKER)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr or result.stdout

    def test_checker_catches_broken_link_and_anchor(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.md").write_text(
            "# Title\n\nsee [missing](nope.md) and [bad](b.md#no-such-heading)\n",
            encoding="utf-8",
        )
        (tmp_path / "docs" / "b.md").write_text("# Real Heading\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(CHECKER), "--root", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "nope.md" in result.stderr
        assert "no-such-heading" in result.stderr

    def test_checker_accepts_valid_anchor_and_ignores_code(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.md").write_text(
            "# One\n\n[ok](#two-words)\n\n```\n[not a link](ghost.md)\n```\n\n"
            "## Two words\n",
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, str(CHECKER), "--root", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


class TestCliDocDrift:
    def test_every_subcommand_in_cli_docstring(self):
        for name in subcommands():
            assert name in cli.__doc__, (
                f"subcommand {name!r} missing from the repro.cli module "
                f"docstring — update the command list"
            )

    def test_every_subcommand_in_architecture_table(self):
        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for name in subcommands():
            assert f"`{name}`" in text, (
                f"subcommand {name!r} missing from the CLI table in "
                f"docs/ARCHITECTURE.md"
            )

    def test_every_subcommand_has_help_text(self):
        parser = cli.build_parser()
        for action in parser._actions:
            if not isinstance(action, argparse._SubParsersAction):
                continue
            helps = {
                choice.dest: choice.help for choice in action._choices_actions
            }
            for name in action.choices:
                assert helps.get(name), f"subcommand {name!r} has no help text"

    def test_engine_choices_match_docs_claim(self):
        """RUNTIME.md/ENGINE.md promise --engine {event,lockstep} everywhere
        a simulation is launched; keep the parser honest."""
        from repro.engine import available_engines

        assert set(available_engines()) == {"event", "lockstep"}
        for name in (
            "simulate-gemm",
            "batch",
            "sweep",
            "explore",
            "serve",
            "replay",
            "selftest",
        ):
            sub = subcommands()[name]
            engine_actions = [a for a in sub._actions if a.dest == "engine"]
            assert engine_actions, f"{name} lost its --engine flag"
            assert set(engine_actions[0].choices) == set(available_engines())

    #: (flag, subcommand) -> the fields in which that subcommand's flag may
    #: differ from the flag's other declarations.  Everything else about a
    #: flag is the same wherever the flag appears.
    FLAG_DIFFERS = {
        # Names what the exporter reads the directory for.
        ("--cache-dir", "metrics"): {"help"},
        # Defaults to a temporary directory, not the user's cache.
        ("--cache-dir", "selftest"): {"help"},
        # Also draws the trace and the pool; unset means $REPRO_FUZZ_SEED.
        ("--seed", "replay"): {"help", "default"},
        # Seeds the search strategy; explore's operand seed is --sim-seed.
        ("--seed", "explore"): {"help"},
        # 256 where serve has 64 (the help text names each its own).
        ("--backlog", "replay"): {"help"},
        # None, which sweep reads as the DataMaestro backend.
        ("--backend", "sweep"): {"default"},
        # The exploration's run journal, not the service's job journal.
        ("--journal", "explore"): {"help"},
        # A switch (print the report as JSON); explore's takes a PATH.
        ("--json", "replay"): {"help", "default", "metavar"},
    }

    def test_a_flag_means_the_same_on_every_subcommand(self):
        """Each shared flag has one declaration in ``repro.cli``; what a
        subcommand may vary is listed above, with the reason."""
        declared = {}
        for name, sub in subcommands().items():
            for action in sub._actions:
                for flag in action.option_strings:
                    declared.setdefault(flag, {})[name] = action
        for flag, actions in declared.items():
            for field in ("type", "choices", "metavar", "help", "default"):
                values = {
                    name: getattr(action, field)
                    for name, action in actions.items()
                    if field not in self.FLAG_DIFFERS.get((flag, name), ())
                }
                assert len({repr(value) for value in values.values()}) <= 1, (
                    f"{flag} {field} differs between subcommands: {values}"
                )
        stale = [key for key in self.FLAG_DIFFERS if key[1] not in declared.get(key[0], {})]
        assert stale == [], f"FLAG_DIFFERS lists flags that no longer exist: {stale}"


class TestKnobTable:
    def test_env_vars_documented_in_one_place(self):
        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for knob in (
            "REPRO_CACHE_DIR",
            "REPRO_JOURNAL_DIR",
            "REPRO_SERVE_SHARDS",
            "REPRO_FULL_SUITE",
            "DEFAULT_CYCLE_BUDGET",
        ):
            assert knob in text, f"{knob} missing from the ARCHITECTURE.md knob table"

    def test_every_config_env_var_is_documented(self):
        """The typed config is the code-side source of truth; every ENV_*
        constant it exports must appear in the knob table."""
        import repro.config as config

        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        env_names = [
            getattr(config, name)
            for name in config.__all__
            if name.startswith("ENV_")
        ]
        assert env_names, "repro.config exports no ENV_* constants?"
        for env_name in env_names:
            assert env_name in text, (
                f"{env_name} (repro.config) missing from the "
                f"ARCHITECTURE.md knob table"
            )

    def test_documented_knobs_exist_in_code(self):
        from repro.runtime.cache import CACHE_DIR_ENV
        from repro.sim import DEFAULT_CYCLE_BUDGET

        assert CACHE_DIR_ENV == "REPRO_CACHE_DIR"
        assert DEFAULT_CYCLE_BUDGET == 10_000_000


class TestCoverageOfDocsTree:
    def test_every_doc_page_linked_from_architecture(self):
        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for page in sorted(DOCS.glob("*.md")):
            if page.name == "ARCHITECTURE.md":
                continue
            assert f"({page.name}" in text, (
                f"docs/{page.name} is not linked from the architecture map"
            )

    def test_serve_doc_covers_the_promised_sections(self):
        text = (DOCS / "SERVE.md").read_text(encoding="utf-8")
        for needle in (
            "coalesce",
            "backpressure",
            "QueueFullError",
            "drain",
            "bare `Simulator`",
            "cache prune",
        ):
            assert needle in text, f"SERVE.md lost its {needle!r} coverage"

    def test_observability_doc_covers_the_promised_surface(self):
        """OBSERVABILITY.md documents every metric family the exporter
        emits, the trace span glossary and the dashboard walkthrough."""
        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        for needle in (
            "--metrics-port",
            "--trace",
            "--stats-format",
            "/metrics",
            "/snapshot",
            "/config",
            "repro_latency_seconds",
            "repro_journal_recovered_total",
            "repro_shard_executed_total",
            "repro_build_info",
            "dispatched",
            "write_back",
            "Perfetto",
            "Dashboard walkthrough",
        ):
            assert needle in text, f"OBSERVABILITY.md lost its {needle!r} coverage"

    def test_observability_doc_metric_names_match_the_exporter(self, tmp_path):
        """Every family a live thread service and a live 2-shard cluster
        ``collect()`` must appear, spelled out, in the doc's metric table —
        adding or renaming a family without documenting it fails."""
        from repro.cluster import ClusterConfig, ClusterService
        from repro.runtime import SimJob
        from repro.serve import ServiceClient
        from repro.workloads import GemmWorkload

        # A baseline backend is analytic: an executed job fills every
        # family, per-executor rows included.
        job = SimJob(
            workload=GemmWorkload(name="doc_gemm", m=8, n=8, k=8),
            backend="baseline:feather",
        )
        names = set()
        with ServiceClient(cache_dir=tmp_path / "thread") as client:
            client.run([job])
            names.update(family.name for family in client.collect())
        with ClusterService(
            cache_dir=tmp_path / "cluster", config=ClusterConfig(shards=2)
        ) as cluster:
            cluster.run([job])
            names.update(family.name for family in cluster.collect())
        assert {"repro_worker_executed_total", "repro_shard_alive"} <= names
        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        for name in sorted(names):
            assert name in text, f"{name} missing from the OBSERVABILITY.md table"

    def test_scenarios_doc_covers_the_promised_surface(self):
        """SCENARIOS.md documents the generator grammar, the shrinker and
        the replay CLI walkthrough."""
        text = (DOCS / "SCENARIOS.md").read_text(encoding="utf-8")
        for needle in (
            "WorkloadGenerator",
            "shrink",
            "regression_snippet",
            "REPRO_FUZZ_SEED",
            "Replay CLI walkthrough",
            "--trace-file",
            "--record",
            "avoided fraction",
            "Tested regimes",
        ):
            assert needle in text, f"SCENARIOS.md lost its {needle!r} coverage"

    def test_every_arrival_regime_documented(self):
        """Adding a regime to REGIMES without a SCENARIOS.md row fails."""
        from repro.serve.replay import REGIMES

        text = (DOCS / "SCENARIOS.md").read_text(encoding="utf-8")
        assert len(REGIMES) >= 4
        for name in REGIMES:
            assert f"`{name}`" in text, (
                f"arrival regime {name!r} missing from the SCENARIOS.md "
                f"regime table"
            )

    def test_every_generator_family_documented(self):
        """Every scenario family the generator samples has a grammar row."""
        from repro.workloads import FAMILIES

        text = (DOCS / "SCENARIOS.md").read_text(encoding="utf-8")
        for family in FAMILIES:
            assert f"`{family}`" in text, (
                f"generator family {family!r} missing from the SCENARIOS.md "
                f"family table"
            )

    def test_replay_regimes_match_the_cli_choices(self):
        """The `repro replay --regime` choices are exactly the registry."""
        from repro.serve.replay import REGIMES

        sub = subcommands()["replay"]
        regime_actions = [a for a in sub._actions if a.dest == "regime"]
        assert regime_actions, "replay lost its --regime flag"
        assert set(regime_actions[0].choices) == set(REGIMES)

    def test_serve_doc_covers_the_cluster(self):
        """The sharding section documents every cluster guarantee the
        tests in ``tests/cluster/`` enforce."""
        text = (DOCS / "SERVE.md").read_text(encoding="utf-8")
        for needle in (
            "Sharding across processes",
            "Dispatch",
            "ShardFailedError",
            "requeue",
            "journal",
            "--shards",
            "--stats-interval",
            "cluster_unique",
        ):
            assert needle in text, f"SERVE.md lost its cluster {needle!r} coverage"


class TestStructure:
    """What the tree must keep being, checked from its files."""

    def test_no_module_under_src_imports_asyncio(self):
        """``serve`` and ``cluster`` share one concurrency model — threads
        under a lock; a second one must not come back unnoticed."""
        import ast

        offenders = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "asyncio" for name in names):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
        assert offenders == []

    @staticmethod
    def check_reachability(root):
        return subprocess.run(
            [sys.executable, str(REACHABILITY), "--root", str(root)],
            capture_output=True,
            text=True,
        )

    @pytest.fixture
    def production_copy(self, tmp_path):
        """The trees the reachability gate reads, copied where a test may edit them."""
        import shutil

        for tree in ("src", "bench", "examples", "tools", "tests", "docs"):
            shutil.copytree(
                REPO_ROOT / tree,
                tmp_path / tree,
                ignore=shutil.ignore_patterns("__pycache__", "*.json"),
            )
        return tmp_path

    def test_everything_under_src_has_a_production_caller(self):
        """A module, public name or member only tests reach is deleted, not
        kept, and an export nothing imports through its package is dropped."""
        result = self.check_reachability(REPO_ROOT)
        assert result.returncode == 0, result.stderr
        assert " members and " in result.stdout and " exports " in result.stdout

    def test_reachability_gate_names_an_orphan_module_and_name(self, production_copy):
        package = production_copy / "src" / "repro"
        (package / "sim" / "orphan.py").write_text("def lonely():\n    return 1\n")
        with open(package / "utils" / "packing.py", "a", encoding="utf-8") as handle:
            handle.write("\n\ndef unreferenced_helper():\n    return 2\n")
        result = self.check_reachability(production_copy)
        assert result.returncode == 1
        assert "src/repro/sim/orphan.py: module has no importer" in result.stderr
        assert "src/repro/utils/packing.py: unreferenced_helper" in result.stderr
        assert len(result.stderr.splitlines()) == 3  # the count line + the two orphans

    def test_reachability_gate_rejects_a_stale_allowlist_entry(self, production_copy):
        (production_copy / "src" / "repro" / "__main__.py").unlink()
        result = self.check_reachability(production_copy)
        assert result.returncode == 1
        assert "allowlist: 'repro/__main__.py' matches nothing" in result.stderr

    def test_reachability_gate_names_a_test_only_method(self, production_copy):
        fifo = production_copy / "src" / "repro" / "sim" / "fifo.py"
        source = fifo.read_text(encoding="utf-8")
        anchor = "    def pop(self) -> T:\n"
        assert anchor in source
        planted = "    def only_tests_call(self) -> int:\n        return 1\n\n"
        fifo.write_text(source.replace(anchor, planted + anchor), encoding="utf-8")
        (production_copy / "tests" / "sim" / "test_planted.py").write_text(
            "from repro.sim import Fifo\n\n\ndef test_it():\n"
            "    assert Fifo(1).only_tests_call() == 1\n"
        )
        result = self.check_reachability(production_copy)
        assert result.returncode == 1
        assert "src/repro/sim/fifo.py: Fifo.only_tests_call is referenced nowhere" in result.stderr
        assert len(result.stderr.splitlines()) == 2  # the count line + the method

    def test_reachability_gate_names_an_export_nothing_imports(self, production_copy):
        init = production_copy / "src" / "repro" / "utils" / "__init__.py"
        source = init.read_text(encoding="utf-8")
        planted = 'from .packing import pad_to_multiple as pad\n\n__all__ = ["pad", '
        init.write_text(source.replace("__all__ = [", planted), encoding="utf-8")
        result = self.check_reachability(production_copy)
        assert result.returncode == 1
        assert (
            "src/repro/utils/__init__.py: __all__ exports pad, which nothing outside "
            "the package imports from it"
        ) in result.stderr
        assert len(result.stderr.splitlines()) == 2

    def test_reachability_gate_names_a_dangling_export(self, production_copy):
        init = production_copy / "src" / "repro" / "utils" / "__init__.py"
        source = init.read_text(encoding="utf-8")
        init.write_text(source.replace("__all__ = [", "__all__ = [\"ghost\", "), encoding="utf-8")
        result = self.check_reachability(production_copy)
        assert result.returncode == 1
        assert (
            "src/repro/utils/__init__.py: __all__ names ghost, which the __init__ "
            "does not bind"
        ) in result.stderr
        assert len(result.stderr.splitlines()) == 2

    def test_reachability_gate_rejects_a_stale_member_allowlist_entry(self, production_copy):
        (production_copy / "tools" / "drain.py").write_text(
            "def drain(cluster):\n    return cluster.wait_idle()\n"
        )
        result = self.check_reachability(production_copy)
        assert result.returncode == 1
        assert (
            "allowlist: 'repro/cluster/service.py::ClusterService.wait_idle' is reachable "
            "without it"
        ) in result.stderr
        assert len(result.stderr.splitlines()) == 2

    def test_setup_py_carries_the_package_metadata(self, monkeypatch):
        """No network, no install: build the distribution object ``setup.py``
        describes and stop before any command runs."""
        pytest.importorskip("setuptools")  # also provides distutils on 3.12+
        from distutils.core import run_setup

        import repro

        monkeypatch.chdir(REPO_ROOT)
        dist = run_setup("setup.py", stop_after="init")
        assert dist.get_name() == "repro-datamaestro"
        assert dist.get_version() == repro.__version__
        assert dist.package_dir == {"": "src"}
        assert dist.install_requires == ["numpy"]
        assert dist.entry_points == {"console_scripts": ["repro = repro.cli:main"]}
        source = REPO_ROOT / "src"
        assert set(dist.packages) == {
            ".".join(init.parent.relative_to(source).parts)
            for init in source.rglob("__init__.py")
        }

    def test_python_m_repro_is_the_cli(self):
        """The docs write ``repro serve …``; ``python -m repro`` must be it."""
        import os

        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        for name in subcommands():
            assert name in result.stdout


class TestExamples:
    @staticmethod
    def git_status():
        """``git status --porcelain`` of the checkout; ``None`` outside one."""
        try:
            result = subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
            )
        except FileNotFoundError:
            return None
        return result.stdout if result.returncode == 0 else None

    @pytest.mark.parametrize("script", EXAMPLES)
    def test_example_runs_and_leaves_the_tree_clean(self, script):
        import os

        before = self.git_status()
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / script)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert self.git_status() == before
