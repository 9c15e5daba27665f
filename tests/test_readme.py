from __future__ import annotations

import argparse
import fnmatch
import importlib
import pathlib
import pkgutil
import re

import rtp
from rtp import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_module_references_resolve():
    # a backticked `module.name`, or `rtp.module.name`, in README.md or in
    # the package's docstrings names an attribute of that rtp module, so a
    # rename or a deletion leaves no stale mention behind
    modules = {m.name for m in pkgutil.iter_modules(rtp.__path__)}
    texts = [README, *sorted((ROOT / "src" / "rtp").glob("*.py"))]
    refs = [(path.name, m[1], m[2]) for path in texts
            for span in re.findall(r"`+([^`]+)`+", path.read_text())
            if (m := re.match(r"(?:rtp\.)?(\w+)\.(?!py\b)(\w+)", span)) and m[1] in modules]
    assert len(refs) >= 10, refs
    stale = [ref for ref in refs if not hasattr(importlib.import_module(f"rtp.{ref[1]}"), ref[2])]
    assert not stale, f"these name no attribute of their module: {stale}"
