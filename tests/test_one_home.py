"""Every UPPER_CASE constant of the package has one home: it is assigned
in exactly one module, and a constant that a second module imports lives
in config.  The window config has one reader besides the window formula:
the sheet, which hands its k_max down as a value.  In assembly only the
sided roots read a cut side.  No module of the package or of its tests
imports a name it never reads.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import perch

CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]*$")


def modules():
    for path in sorted(Path(perch.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def test_each_constant_is_assigned_in_one_module():
    homes = defaultdict(set)
    for name, tree in modules():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for t in targets:
                if isinstance(t, ast.Name) and CONSTANT.match(t.id):
                    homes[t.id].add(name)
    assert len(homes) > 20
    assert {c: sorted(m) for c, m in homes.items() if len(m) > 1} == {}


def test_shared_constants_live_in_config():
    strays = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                strays += [f"{name} imports {a.name} from {node.module}"
                           for a in node.names if CONSTANT.match(a.name)
                           and node.module != "config"]
    assert strays == []


def functions(tree, prefix=""):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield f"{prefix}{node.name}", node


def test_window_config_read_only_by_the_sheet_and_the_window():
    # a function may accept a ccfg it does not read (callers pass it
    # along), but only these two may read one
    readers = []
    for name, tree in modules():
        for qual, fn in functions(tree):
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if any(a.arg == "ccfg" for a in args) and any(
                    isinstance(n, ast.Name) and n.id == "ccfg"
                    and isinstance(n.ctx, ast.Load) for n in ast.walk(fn)):
                readers.append(f"{name}.{qual}")
    assert readers == ["branch.SheetedR.__init__",
                       "scattering.ScatteringData.k_window"]


def test_no_module_imports_a_name_it_never_reads():
    # a linter's unused-import rule, from the standard library
    unused = []
    for path in sorted(Path(perch.__file__).parent.glob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name} imports {name}" for name in
                           ((a.asname or a.name).split(".")[0]
                            for a in node.names) if name not in read]
    assert unused == []


def test_only_the_sided_roots_read_a_cut_side():
    # each node has one jump, the plus form on a cut; jump_stack may
    # accept a side it does not read (perfbench passes one by position)
    tree = dict(modules())["assembly"]
    readers = [qual for qual, fn in functions(tree)
               if any(isinstance(n, ast.Name) and n.id == "side"
                      and isinstance(n.ctx, ast.Load) for n in ast.walk(fn))]
    assert readers == ["_sided_roots"]
