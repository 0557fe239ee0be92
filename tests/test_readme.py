"""README.md stays true: every python block runs, the config table lists
the defaults and every module attribute it names exists. A stale example,
default or name fails the suite."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fronthaul_planner
from fronthaul_planner.config import SystemConfig, effective_config_lines

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README,
                    flags=re.MULTILINE | re.DOTALL)
MODULES = {info.name for info in pkgutil.iter_modules(fronthaul_planner.__path__)}
# backticked dotted names whose first part is a package module, such as
# `seeds.JUMP`; file names such as `grid.csv` start with no module
NAMES = sorted({name for name in re.findall(r"`(\w+(?:\.\w+)+)`", README)
                if name.split(".")[0] in MODULES})


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda s: s.splitlines()[0])
def test_readme_block_runs(source, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", source], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_names_modules():
    assert NAMES


@pytest.mark.parametrize("name", NAMES)
def test_readme_module_attribute_exists(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"fronthaul_planner.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"README names {name}, which does not exist"
        obj = getattr(obj, attr)


def _number_or_text(value):
    try:
        return float(value)
    except ValueError:
        return value


def test_readme_config_table_lists_the_defaults():
    # a row may pair keys and defaults: | `m`, `k` | 100, 10 | ... |
    table = {}
    for keys, values in re.findall(r"^\| (`.*?) \| (.*?) \|", README,
                                   flags=re.MULTILINE):
        for key, value in zip(keys.split(", "), values.split(", "), strict=True):
            table[key.strip("`")] = _number_or_text(value.strip("`"))
    defaults = dict(line.split(" = ")
                    for line in effective_config_lines(SystemConfig()))
    assert table == {key: _number_or_text(value)
                     for key, value in defaults.items()}
