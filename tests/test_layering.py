"""Static layering: `harness/config.py` is the only module that knows the
config's JSON layout, so no other module subscripts a config's `raw` dict."""

import ast
from pathlib import Path

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
