"""Rules on the library's source, read from its syntax trees: every import
is used, every private top-level or class-level name is used by the
library, and every public numeric constant has exactly one row in the
README tolerance table.  Each failure lists every offending line."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "opball").glob("*.py"))


def _trees():
    return {path.relative_to(ROOT): ast.parse(path.read_text())
            for path in SOURCES}


def test_every_import_is_used():
    bad = []
    for path, tree in _trees().items():
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bad += [f"{path}:{node.lineno}: {alias.name} is imported and never used"
                        for alias in node.names
                        if (alias.asname or alias.name).split(".")[0] not in used]
    assert not bad, "\n".join(bad)


def test_every_private_name_is_used_by_the_library():
    trees = _trees()
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bad = []
    for path, tree in trees.items():
        # the module body, and the body of each top-level class, whose
        # private methods (such as _hold and _set) are checked too
        bodies = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        for node in (node for body in bodies for node in body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            bad += [f"{path}:{node.lineno}: {name} is never used in src/opball"
                    for name in names
                    if name.startswith("_") and not name.startswith("__")
                    and name not in used]
    assert not bad, "\n".join(bad)


def _numeric(node):
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.UnaryOp):
        return _numeric(node.operand)
    return isinstance(node, ast.BinOp) and _numeric(node.left) and _numeric(node.right)


def test_every_public_constant_has_one_tolerance_table_row():
    defined = set()
    for path, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and _numeric(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {(t.id, path.stem) for t in targets
                            if isinstance(t, ast.Name) and t.id.isupper()
                            and not t.id.startswith("_")}
    rows = re.findall(r"^\s*\| `(\w+)` \| [^|]+ \| `(\w+)` \|",
                      (ROOT / "README.md").read_text(), re.M)
    bad = [f"{module}.{name} has no row in the README tolerance table"
           for name, module in sorted(defined - set(rows))]
    bad += [f"README tolerance table row {module}.{name} names no constant"
            for name, module in sorted(set(rows) - defined)]
    bad += [f"README tolerance table has {rows.count(row)} rows for {row[1]}.{row[0]}"
            for row in sorted(set(rows)) if rows.count(row) > 1]
    assert not bad, "\n".join(bad)
