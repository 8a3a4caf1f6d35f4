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
from spoofsim.harness.config import SCHEMA

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


# ---------------------------------------------------------------------------
# One implementation of each model, and few settable values

TESTS = Path(__file__).parent
REFERENCE = TESTS / "reference.py"


def test_no_module_imports_the_tests():
    """`src` stands alone: no module imports `reference` or anything else
    under `tests/`, so a scalar reference cannot be reached by a run."""

    test_modules = {path.stem for path in TESTS.glob("*.py")} | {"tests"}
    offenders = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in imported_modules(path) if name.split(".")[0] in test_modules
    ]
    assert not offenders, offenders


def defined_names(path, bases=()):
    """Names the file defines: its top-level functions, classes and
    assignments, and ``Class.member`` for each method and class attribute.
    A member of a class deriving from one of ``bases`` (by name) is also
    named after that base."""

    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            owners = [node.name] + [b for b in map(ast.unparse, node.bases)
                                    if b.split(".")[-1] in bases]
            for item in node.body:
                member = getattr(item, "name", None) or getattr(getattr(item, "target", None),
                                                                "id", None)
                if member:
                    names.update(f"{owner.split('.')[-1]}.{member}" for owner in owners)
    return names


def test_defined_names_finds_them(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("X = 1\nY: int = 2\ndef f(): pass\nclass A(tcas.B):\n"
                     "    z: int = 0\n    def g(self): pass\n")
    assert defined_names(probe) == {"X", "Y", "f", "A", "A.z", "A.g"}
    assert defined_names(probe, {"B"}) == defined_names(probe) | {"B.z", "B.g"}


def test_references_are_not_also_in_src():
    """Each model has one implementation in `src`: no top-level name of
    `tests/reference.py` is defined under `src/spoofsim`, at top level or as
    a member, and no member it adds to a subclass of a `src` class is
    defined on that class there."""

    src_names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        names = defined_names(path)
        src_names |= names | {n.split(".")[1] for n in names if "." in n}
    src_classes = {n for n in src_names if "." not in n and n[:1].isupper()}
    reference = {n for n in defined_names(REFERENCE, src_classes)
                 if "." not in n or n.split(".")[0] in src_classes}
    assert {"mode_s_cycle", "ClosureRateEstimator", "Transponder.claim"} <= reference
    assert not reference & src_names, sorted(reference & src_names)


def settable_values(schema, package):
    """The values a caller can set: `schema`'s leaves, the public fields with
    a default of the package's dataclasses (a `ClassVar` is not a field), and
    the parameters with a default of its module-level functions and of the
    methods of its module-level classes."""

    def leaves(node):
        properties = node.get("properties")
        return 1 if properties is None else sum(map(leaves, properties.values()))

    def defaults(function):
        return len(function.args.defaults) + sum(d is not None for d in function.args.kw_defaults)

    def is_dataclass(cls):
        return any(ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass"
                   for d in cls.decorator_list)

    count = leaves(schema)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, functions):
                count += defaults(node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions):
                        count += defaults(item)
                    elif (is_dataclass(node) and isinstance(item, ast.AnnAssign)
                          and item.value is not None and not item.target.id.startswith("_")
                          and "ClassVar" not in ast.unparse(item.annotation)):
                        count += 1
    return count


def test_settable_values_counts_them(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "m.py").write_text(
        "from dataclasses import dataclass, field\nfrom typing import ClassVar\n"
        "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int = 1\n    _c: int = 2\n"
        "    d: ClassVar[int] = 3\n    e: list = field(default_factory=list)\n"
        "    def f(self, x, y=1, *, z=2): pass\n"
        "class B:\n    g: int = 4\n    def __init__(self, p=0): pass\n"
        "def h(q, r=1):\n    def nested(s=1): pass\n")
    schema = {"properties": {"x": {}, "y": {"properties": {"z": {}, "w": {}}}}}
    # leaves x, z, w; fields b, e; defaults y, z, p, r
    assert settable_values(schema, package) == 3 + 2 + 4


def test_settable_values():
    """Ratchet: the values a caller can set do not grow back.  (143 before
    the scalar references moved to the tests and the options only tests
    set became constants.)"""

    assert settable_values(SCHEMA, PACKAGE) <= 129
