"""The README's code examples run against the current API.

Every ```python block is executed and every ```json block (a run
configuration) must pass ``cli.build_spec``, so the quick start and the
config example cannot drift from the package unnoticed.
"""

import json
import re
from pathlib import Path

import pytest

from oamwalk import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_has_examples():
    assert blocks("python") and blocks("json")


@pytest.mark.parametrize("index", range(len(blocks("python"))))
def test_python_block_runs(index):
    exec(compile(blocks("python")[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("index", range(len(blocks("json"))))
def test_json_block_is_a_valid_config(index):
    cli.build_spec(json.loads(blocks("json")[index]))
