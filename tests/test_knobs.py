"""The knob table (:data:`repro.api.config.KNOBS`) and what it drives.

* The README's engine-knob and service-limit tables are renderings of
  the knob table and of :class:`repro.service.ServiceLimits`; a README
  that disagrees fails here, and the failure prints the current
  rendering to paste between the README markers.
* Each subcommand's flags and their defaults are pinned: generating
  the flags from the table must add, drop or re-default none of them.
* Every environment fallback reports a bad value under its own name.
"""

from __future__ import annotations

import argparse
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.__main__ import build_parser, flag
from repro.api.config import KNOBS, SHARD_EXECUTOR_CHOICES
from repro.errors import ConfigError
from repro.service import ServiceLimits

README = Path(__file__).resolve().parents[1] / "README.md"


def engine_knob_table() -> str:
    lines = [
        "| Knob | Values | Default | Env | Requires | CLI | Meaning |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in KNOBS.values():
        options = row.options()
        values = " / ".join(options) if options else ", ".join(
            filter(None, [row.kind.__name__, row.range_text()]))
        default = "required" if row.required else (
            "unset" if row.default is None else f"`{row.default}`")
        requires = "shards" if row.requires else ""
        if row.requires and row.requires != SHARD_EXECUTOR_CHOICES:
            requires += ", executor " + " / ".join(row.requires)
        cli = ", ".join(row.cli)
        env = f"`{row.env}`" if row.env else ""
        lines.append(
            f"| `{row.name}` | {values} | {default} | {env} | {requires} | "
            f"{cli} | {row.doc} |"
        )
    return "\n".join(lines)


def service_limit_table() -> str:
    lines = ["| Flag | Default | Meaning |", "| --- | --- | --- |"]
    for limit in fields(ServiceLimits):
        lines.append(
            f"| `{flag(limit.name)}` | `{limit.default}` | "
            f"{limit.metadata['doc']} |"
        )
    return "\n".join(lines)


def readme_block(name: str) -> str:
    match = re.search(
        rf"<!-- {name}:begin -->\n(.*?)\n<!-- {name}:end -->",
        README.read_text(),
        re.S,
    )
    assert match, f"README has no {name} block"
    return match.group(1)


@pytest.mark.parametrize(
    "name, render",
    [("knob-table", engine_knob_table), ("service-limits", service_limit_table)],
)
def test_readme_tables_match_their_source(name, render):
    expected = render()
    assert readme_block(name) == expected, (
        f"README {name} block is stale; replace it with:\n{expected}"
    )


# Every flag of every subcommand, with its default, as the knob table
# replaced the hand-written engine flags.
EXPECTED_FLAGS = {
    "bench": {
        "--arrival": "burst", "--batch-size": None,
        "--dim": 2, "--eps": None, "--eps-per-d": 100, "--format": "text",
        "--insert-fraction": 5 / 6,
        "--minpts": 10, "--n": 2000, "--query-freq": 0.05, "--rho": 0.001,
        "--scenario": "mixed", "--seed": 42, "--semi": False,
        "--shard-call-timeout": None, "--shard-executor": "serial",
        "--shard-transport": None, "--shard-workers": None,
        "--shards": None, "--window-capacity": None,
        "algorithms": ["double-approx", "incdbscan"],
    },
    "serve": {
        "--algorithm": "full", "--allow-shutdown-op": False,
        "--dim": 2, "--drain-timeout": 30.0,
        "--eps": None, "--eps-per-d": 100, "--host": "127.0.0.1",
        "--max-inflight": 256, "--max-sessions": 64,
        "--max-write-buffer": 1 << 20, "--minpts": 10, "--port": 7171,
        "--queue-depth": 32, "--rho": 0.001, "--shard-call-timeout": None,
        "--shard-executor": "serial", "--shard-transport": None,
        "--shard-workers": None, "--shards": None,
        "--window-capacity": None,
    },
    "shard-worker": {"--host": "127.0.0.1", "--once": False, "--port": 0},
    "generate": {"--dim": 2, "--n": 10000, "--output": None, "--seed": 0},
    "usec": {"--dim": 2, "--instances": 5, "--n": 12},
}


def _subcommands():
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices


@pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
def test_subcommand_flags_and_defaults_are_pinned(command):
    parser = _subcommands()[command]
    got = {
        (a.option_strings[-1] if a.option_strings else a.dest): a.default
        for a in parser._actions
        if not isinstance(a, argparse._HelpAction)
    }
    assert got == EXPECTED_FLAGS[command]
    # Every flag is documented in --help.
    text = parser.format_help()
    for option in got:
        assert option in text


@pytest.mark.parametrize("name", [n for n, row in KNOBS.items() if row.env])
def test_bad_environment_value_names_its_variable(monkeypatch, name):
    row = KNOBS[name]
    monkeypatch.setenv(row.env, "%no such value%")
    with pytest.raises(ConfigError, match=row.env):
        row.resolve(None)
