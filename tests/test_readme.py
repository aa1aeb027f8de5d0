"""The README's library example runs and its config examples load as written."""

import json
import re
from pathlib import Path

from tagwalk.pipeline import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README}:Library use", "exec"), namespace)
    assert namespace["predicted"].shape == namespace["n"].shape


def assert_kept(written: dict, resolved: dict, path: str = "") -> None:
    for key, value in written.items():
        if isinstance(value, dict):
            assert_kept(value, resolved[key], f"{path}{key}.")
        else:
            assert resolved[key] == value, f"{path}{key}"


def test_cli_config_blocks_load_as_written(tmp_path):
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    for number, block in enumerate(blocks):
        path = tmp_path / f"config{number}.json"
        path.write_text(block)
        assert_kept(json.loads(block), load_config(path).resolved())
