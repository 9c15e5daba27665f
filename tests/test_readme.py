from __future__ import annotations

import fnmatch
import pathlib
import re

import rtp

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
