"""Static layering: `harness/config.py` is the only module that knows the
config's JSON layout, so no other module subscripts a config's `raw` dict.
`jsonschema` is a test dependency: no module imports it, no command loads it.
Set-up draws no random numbers, so it does not load `numpy.random`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spoofsim

PACKAGE = Path(spoofsim.__file__).parent
LAYOUT_OWNER = PACKAGE / "harness" / "config.py"


def raw_subscripts(path):
    """Line numbers of every ``<expr>.raw[...]`` in the file."""

    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "raw"
    ]


def test_raw_subscripts_finds_them(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = cfg.raw['world']\ny = cfg.raw\nz = raw['world']\n")
    assert raw_subscripts(probe) == [1]


def test_only_config_module_subscripts_raw():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != LAYOUT_OWNER
        for line in raw_subscripts(path)
    ]
    assert not offenders, offenders


#: `harness/output.py` is the only module that knows a run directory's layout.
RUN_DIR_OWNER = PACKAGE / "harness" / "output.py"


def run_dir_names(path):
    """Line numbers where the file names a run directory's ``config.json`` or
    its ``trials`` directory: a string literal (docstrings aside) holding
    ``config.json`` or ``trials/``, or ``"trials"`` as an operand of ``/``."""

    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings \
                and ("config.json" in node.value or "trials/" in node.value):
            lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            lines.extend(
                side.lineno for side in (node.left, node.right)
                if isinstance(side, ast.Constant) and side.value == "trials"
            )
    return sorted(lines)


def test_run_dir_names_finds_them(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        '"""Reads config.json."""\n'
        'a = out / "config.json"\n'
        'b = out / "trials" / name\n'
        'c = f"{out}/trials/{name}"\n'
        'd = {"trials": 3}\n'
        'e = getattr(args, "trials")\n'
        'f = "--trials"\n'
    )
    assert run_dir_names(probe) == [2, 3, 4]


def test_only_output_module_names_run_dir_layout():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != RUN_DIR_OWNER
        for line in run_dir_names(path)
    ]
    assert not offenders, offenders


def imported_modules(path):
    """Every absolute module name the file imports."""

    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_imported_modules_finds_them(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import jsonschema.validators as v\nfrom jsonschema import exceptions\n"
                     "from . import config\ndef f():\n    import json\n")
    assert imported_modules(probe) == ["jsonschema.validators", "jsonschema", "json"]


def test_no_module_imports_jsonschema():
    """`jsonschema` is a test dependency: config validation walks `SCHEMA` itself."""

    offenders = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if any(name.split(".")[0] == "jsonschema" for name in imported_modules(path))
    ]
    assert not offenders, offenders


def test_commands_run_without_jsonschema(tmp_path):
    """Neither building a config nor rejecting one loads `jsonschema`."""

    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "scenario": "GS", "trials": 0}')
    script = (
        "import sys\n"
        "from spoofsim.harness import cli, config\n"
        "config.make_config(config.default_config_dict('GS'))\n"
        f"assert cli.main(['validate-config', '--config', {str(bad)!r}]) == 2\n"
        "sys.exit('jsonschema was imported' if 'jsonschema' in sys.modules else 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "trials: 0 is less than the minimum of 1" in done.stderr


def test_setup_leaves_numpy_random_unimported(tmp_path):
    """Importing the CLI, building every scenario's default config and
    validating a config file through `main` do not import `numpy.random`
    (numpy 2 loads it at first use): trial generators are made per chunk, at
    run time, and importing it adds to every command's start-up."""

    probe = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    if probe.stdout.strip() == "True":
        pytest.skip("this numpy imports numpy.random when numpy is imported")
    good = tmp_path / "good.json"
    good.write_text('{"version": 1, "scenario": "TCAS"}')
    script = (
        "import sys\n"
        "from spoofsim.harness import cli, config, scenarios\n"
        "for name in scenarios.SCENARIOS:\n"
        "    config.make_config(config.default_config_dict(name))\n"
        f"assert cli.main(['validate-config', '--config', {str(good)!r}]) == 0\n"
        "sys.exit('numpy.random was imported' if 'numpy.random' in sys.modules else 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
