from __future__ import annotations

import argparse
import fnmatch
import pathlib
import re

import rtp
from rtp import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_building_blocks_are_exported():
    text = " ".join(README.read_text().split())
    sentence = re.search(r"Building blocks \((.*?)\) are exported", text)
    assert sentence, "README lost its building-blocks sentence"
    names = re.findall(r"`([^`]+)`", sentence.group(1))
    assert names
    for pattern in names:
        matches = fnmatch.filter(rtp.__all__, pattern)
        assert matches, f"README names `{pattern}`, which rtp.__all__ lacks"
        for name in matches:
            assert hasattr(rtp, name), name


def test_readme_names_every_cli_option():
    text = README.read_text()

    def named(option):
        return re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = [(command, action.option_strings) for command, sub in commands.choices.items()
               for action in sub._actions if "--help" not in action.option_strings]
    assert len(options) >= 20, options
    missing = [f"rtp {command} {'/'.join(forms)}" for command, forms in options
               if not any(named(form) for form in forms)]
    assert not missing, f"README names no form of {missing}"
