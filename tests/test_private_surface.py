"""The tests hold the solver to its public output (tests/reference.py), not
to its private stages.

No test module may import a private tangleslopes name, read one as an
attribute of a tangleslopes module, or name one to getattr, setattr or
monkeypatch, unless it is allowed below. The allowed names are the
per-fraction memos, which the tests clear and whose bounds they check.
"""

import ast
from pathlib import Path

ALLOWED = {
    "tangleslopes.solver._leaf_table",
    "tangleslopes.solver._leaf_segments",
    "tangleslopes.solver._type_ii_options",
    "tangleslopes.slopes._seifert_leaf",
}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_reads(path):
    """(line, qualified name) of each private tangleslopes name that the
    module at path imports, reads as an attribute or names to a call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    modules = {}  # local name -> the tangleslopes module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tangleslopes":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tangleslopes":
            for alias in node.names:
                qualified = "%s.%s" % (node.module, alias.name)
                modules[alias.asname or alias.name] = qualified
                if _private(alias.name):
                    found.append((node.lineno, qualified))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _private(node.attr):
                found.append((node.lineno, "%s.%s" % (modules[node.value.id], node.attr)))
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            target, attr = node.args[:2]
            if (isinstance(target, ast.Name) and target.id in modules
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str)
                    and _private(attr.value)):
                found.append((node.lineno, "%s.%s" % (modules[target.id], attr.value)))
    return found


def test_tests_read_no_private_name_but_the_memos():
    found = [
        (path.name, line, name)
        for path in sorted(Path(__file__).resolve().parent.glob("*.py"))
        for line, name in private_reads(path)
    ]
    assert [item for item in found if item[2] not in ALLOWED] == []
    assert found  # the rule does see the memo reads it allows


def test_private_reads_finds_each_kind_of_read(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import tangleslopes.solver as solver\n"
        "from tangleslopes import edgepaths\n"
        "from tangleslopes.slopes import _seifert_leaf, replay\n"
        "solver._merge_sum\n"
        "setattr(edgepaths, '_INTEGERS', {})\n"
        "solver.__doc__\n",
        encoding="utf-8",
    )
    assert sorted(private_reads(source)) == [
        (3, "tangleslopes.slopes._seifert_leaf"),
        (4, "tangleslopes.solver._merge_sum"),
        (5, "tangleslopes.edgepaths._INTEGERS"),
    ]
