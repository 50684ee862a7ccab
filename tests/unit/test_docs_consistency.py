"""Docs-consistency check: README.md and ARCHITECTURE.md must keep up
with the code.  Fails when a registered replication protocol, a
registered campaign, a registered metric, a fault action, or a
``REPRO_*`` environment knob is missing from the docs — the drift this
PR-sized repo accumulates fastest.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.analysis import available_metric_families, available_metrics
from repro.campaigns import available_campaigns
from repro.core.faults import FAULT_ACTIONS
from repro.dashboard.server import ENDPOINTS as DASHBOARD_ENDPOINTS
from repro.monitors import available_monitors
from repro.protocols import available_protocols
from repro.runner import __main__ as cli
from repro.runner.__main__ import _build_parser, _resolve_spec

#: Every documented metric name: plain metrics plus the ``base[class]``
#: spelling the parameterized families are documented under.
DOCUMENTED_METRICS = available_metrics() + tuple(
    f"{base}[class]" for base in available_metric_families()
)

REPO = Path(__file__).resolve().parent.parent.parent
README = (REPO / "README.md").read_text(encoding="utf-8")
ARCHITECTURE = (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8")


def cli_subcommands():
    """The subcommands ``python -m repro.runner`` actually accepts."""
    (action,) = [
        a for a in _build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sorted(action.choices)


#: Where ``python -m repro.runner ...`` command lines are shown to users.
COMMAND_SOURCES = (
    "README.md",
    "ARCHITECTURE.md",
    ".github/workflows/ci.yml",
    *sorted(
        str(p.relative_to(REPO)) for p in (REPO / "examples").glob("*.py")
    ),
)

_INLINE_COMMAND = re.compile(r"`+(python -m repro\.runner\b[^`]*)`+")
_SHELL_COMMAND = re.compile(r"python -m repro\.runner\b(?:[^\n\\]|\\\n)*")
_SHELL_OPERATORS = {"|", "||", "&", "&&", ";", ">", ">>", "<"}


def _commands_in(text):
    """``(offset, argv)`` for every runner invocation in ``text``:
    inline code spans (which may wrap lines) and shell lines with their
    backslash continuations, cut at the first shell operator or
    comment.  A bare ``python -m repro.runner`` names the CLI and is
    not an invocation."""
    found = []
    for match in _INLINE_COMMAND.finditer(text):
        found.append((match.start(), match.group(1)))
    masked = _INLINE_COMMAND.sub(lambda m: " " * len(m.group(0)), text)
    for match in _SHELL_COMMAND.finditer(masked):
        found.append((match.start(), match.group(0)))
    commands = []
    for offset, command in sorted(found):
        argv = shlex.split(command.replace("\\\n", " "), comments=True)[3:]
        for i, token in enumerate(argv):
            if token in _SHELL_OPERATORS:
                argv = argv[:i]
                break
        if argv:
            commands.append((offset, argv))
    return commands


def documented_commands():
    """One pytest param per documented runner invocation, including
    the examples in the ``__main__`` docstring that ``--help`` prints."""
    sources = [(name, (REPO / name).read_text(encoding="utf-8"))
               for name in COMMAND_SOURCES]
    sources.append(("src/repro/runner/__main__.py", cli.__doc__))
    params = []
    for name, text in sources:
        for offset, argv in _commands_in(text):
            line = text.count("\n", 0, offset) + 1
            params.append(pytest.param(argv, id=f"{name}:{line}"))
    return params


def used_env_knobs():
    """Every REPRO_* knob referenced anywhere in the source tree."""
    knobs = set()
    for path in (REPO / "src").rglob("*.py"):
        knobs.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    return sorted(knobs)


class TestReadme:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_registered_protocols_documented(self, protocol):
        assert f"`{protocol}`" in README, (
            f"protocol {protocol!r} is registered but missing from README.md"
        )

    @pytest.mark.parametrize("action", FAULT_ACTIONS)
    def test_fault_actions_in_taxonomy_table(self, action):
        assert f"| `{action}` |" in README, (
            f"fault action {action!r} missing from the README fault-model table"
        )

    def test_all_env_knobs_in_consolidated_table(self):
        for knob in used_env_knobs():
            assert f"| `{knob}` |" in README, (
                f"{knob} is used in src/ but missing from the README knob table"
            )

    def test_architecture_doc_referenced(self):
        assert "ARCHITECTURE.md" in README

    @pytest.mark.parametrize("campaign", available_campaigns())
    def test_registered_campaigns_in_table(self, campaign):
        """The README "Running campaigns" table must not drift from the
        campaign registry."""
        assert f"| `{campaign}` |" in README, (
            f"campaign {campaign!r} is registered but missing from the "
            "README campaign table"
        )

    def test_subcommand_cli_documented(self):
        for subcommand in cli_subcommands():
            assert f"repro.runner {subcommand}" in README, (
                f"CLI subcommand {subcommand!r} missing from README.md"
            )

    def test_documented_subcommands_exist(self):
        """Every ``repro.runner <word>`` README shows must be a real
        subcommand (``from repro.runner import`` is Python, not CLI)."""
        documented = set(
            re.findall(r"(?<!from )repro\.runner ([a-z][a-z-]*)", README)
        )
        assert documented, "README documents no repro.runner subcommand"
        unknown = sorted(documented - set(cli_subcommands()))
        assert not unknown, (
            f"README.md documents repro.runner subcommands that do not "
            f"exist: {unknown}"
        )

    @pytest.mark.parametrize("endpoint", sorted(DASHBOARD_ENDPOINTS))
    def test_dashboard_endpoints_in_table(self, endpoint):
        """The README "Watching campaigns live" endpoint table must not
        drift from the server's routing table."""
        assert f"`{endpoint}`" in README, (
            f"dashboard endpoint {endpoint!r} missing from README.md"
        )

    @pytest.mark.parametrize("metric", DOCUMENTED_METRICS)
    def test_registered_metrics_in_table(self, metric):
        """The README "Analyzing results" metric table must not drift
        from the metric registry."""
        assert f"| `{metric}` |" in README, (
            f"metric {metric!r} is registered but missing from the "
            "README metric table"
        )

    @pytest.mark.parametrize("monitor", available_monitors())
    def test_registered_monitors_in_table(self, monitor):
        """The README "Runtime invariant checking" table must not
        drift from the monitor registry."""
        assert f"| `{monitor}` |" in README, (
            f"monitor {monitor!r} is registered but missing from the "
            "README monitor table"
        )


class TestDocumentedCommands:
    """Every ``python -m repro.runner ...`` line a user can copy from
    the docs, CI or the examples must still be accepted by the CLI."""

    def test_commands_found(self):
        assert len(documented_commands()) >= 20

    @pytest.mark.parametrize("argv", documented_commands())
    def test_command_parses(self, argv, capsys):
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(
                f"documented command `repro.runner {' '.join(argv)}` is "
                f"rejected by the CLI: {capsys.readouterr().err.strip()}"
            )
        if args.command in ("run", "describe", "export") and args.spec is None:
            # the campaign is registered and every --set override applies
            _resolve_spec(args)


class TestArchitecture:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_registered_protocols_in_table(self, protocol):
        assert f"| `{protocol}` |" in ARCHITECTURE, (
            f"protocol {protocol!r} missing from the ARCHITECTURE protocol table"
        )

    @pytest.mark.parametrize("action", FAULT_ACTIONS)
    def test_fault_actions_in_table(self, action):
        assert f"| `{action}` |" in ARCHITECTURE, (
            f"fault action {action!r} missing from the ARCHITECTURE action table"
        )

    @pytest.mark.parametrize("campaign", available_campaigns())
    def test_registered_campaigns_in_table(self, campaign):
        assert f"| `{campaign}` |" in ARCHITECTURE, (
            f"campaign {campaign!r} missing from the ARCHITECTURE "
            "campaign table"
        )

    @pytest.mark.parametrize("metric", DOCUMENTED_METRICS)
    def test_registered_metrics_in_table(self, metric):
        assert f"| `{metric}` |" in ARCHITECTURE, (
            f"metric {metric!r} missing from the ARCHITECTURE metric table"
        )

    @pytest.mark.parametrize("monitor", available_monitors())
    def test_registered_monitors_in_table(self, monitor):
        assert f"| `{monitor}` |" in ARCHITECTURE, (
            f"monitor {monitor!r} missing from the ARCHITECTURE "
            "monitor table"
        )

    @pytest.mark.parametrize("endpoint", sorted(DASHBOARD_ENDPOINTS))
    def test_dashboard_endpoints_in_table(self, endpoint):
        """The ARCHITECTURE dashboard endpoint table must not drift
        from the server's routing table."""
        assert f"`{endpoint}`" in ARCHITECTURE, (
            f"dashboard endpoint {endpoint!r} missing from ARCHITECTURE.md"
        )

    def test_lifecycle_walkthrough_present(self):
        for phase in ("crash", "partition", "heal", "state transfer", "live"):
            assert phase in ARCHITECTURE.lower()

    def test_every_package_in_layer_map(self):
        packages = sorted(
            p.name
            for p in (REPO / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        )
        for package in packages:
            assert f"{package}/" in ARCHITECTURE, (
                f"package {package!r} missing from the ARCHITECTURE layer map"
            )
