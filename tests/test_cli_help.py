"""``python -m repro`` help/README drift guard.

The ``perfcheck`` and ``experiments`` subcommands own their argv and are
dispatched before argparse runs; this suite pins the contract that they
(and everything else in ``SUBCOMMANDS``) still show up in ``--help``, in
the registered parser, and in the README command table.
"""

from __future__ import annotations

import os

import pytest

from repro.__main__ import SUBCOMMANDS, build_parser, main

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_subcommands_constant_matches_parser():
    parser = build_parser()
    actions = [
        action for action in parser._actions if hasattr(action, "choices") and action.choices
    ]
    assert actions, "no subparsers registered"
    assert set(actions[0].choices) == set(SUBCOMMANDS)


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    help_text = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert name in help_text, f"--help does not mention {name!r}"


def test_experiments_help_owns_its_argv(capsys):
    # Dispatched before the top-level parser; its own argparse prints and
    # exits, so the intercept must be in place for --help to work at all.
    with pytest.raises(SystemExit) as excinfo:
        main(["experiments", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "figure5" in out and "--queries" in out


def test_perfcheck_help_owns_its_argv(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["perfcheck", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--update" in out and "--decompose" in out


def test_readme_command_table_lists_every_subcommand():
    with open(README, encoding="utf-8") as handle:
        readme = handle.read()
    for name in SUBCOMMANDS:
        assert f"python -m repro {name}" in readme, (
            f"README command table is missing `python -m repro {name}`"
        )
