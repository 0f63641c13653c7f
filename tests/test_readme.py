"""The README's Python example runs as written and does what its comments say."""

import re
from pathlib import Path

import pytest

import merostar
from merostar.classes import Status

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_library_example_runs_and_matches_its_comments():
    namespace: dict = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    verdict = namespace["verdict"]
    assert verdict.status is Status.SAMPLED_MEMBER
    assert verdict.min_margin == pytest.approx(7e-5, rel=0.05)  # "margin ~7e-5"
    assert namespace["report"].passed


def test_every_exported_name_resolves():
    missing = [name for name in merostar.__all__ if not hasattr(merostar, name)]
    assert missing == []
