"""Every UPPER_CASE constant of the package has one home: it is assigned
in exactly one module, and a constant that a second module imports lives
in config.
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
