"""Every UPPER_CASE constant of the package has one home: it is assigned
in exactly one module, and a constant that a second module imports lives
in config.  The window config has one reader besides the window formula:
the sheet, which hands its k_max down as a value.  Nothing in assembly
reads a cut side, and only the Newton polish of the branch points
(_polish_edges) differences the trace: its last step's slope is the
simple-zero check, and the residues take db* from Cauchy's formula on
their ring, so the package has no difference quotient of (a, b, a*, b*).
Only jump_stack builds the t-independent jump: an own panel's through
its memo in the PanelSet's node order (_own_stack), any other node array
whole at every call, so the own panels' jumps that check_jumps reads are
those a jump set is served.  Only JumpSpec panelizes the master contour,
so its memo and jump_diagnostics read the one PanelSet it keeps (ps),
the one panelize hands every caller of the same contour.
Likewise only integrate_transfer builds (through the four-step factors)
and evaluates the step polynomials, so every integration goes through
their memo and the benchmark's count of integrations.  Every
sheet is built once, from the scattering data and the window, and
nothing in the package builds one.
Only _rows applies the Q-form of a Cauchy row, for the near rows of the
fill and for the one-sided rows of CauchyOperator._own_rows alike, and
only leg_Q_side names a side, so both boundary matrices and the off-node
boundary rows build their self-panel rows through the same two
functions; only CauchyOperator._fill takes parameter preimages and Q off
the panels, so nodes, off-contour points and off-node boundary points
share one near/far split.  Only _by_bands makes a thread pool, and only
for the far sum of _fill and the copy of the kept fill in
boundary_matrix, so no other pass of the package runs off the caller's
thread.
No module of the package or of its tests imports a name it never reads,
and every name the benchmark's tracer wraps exists.
"""

import ast
import importlib
import importlib.util
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


def package_callers(target):
    """The package's functions that call target, by name or attribute."""
    return [f"{name}.{qual}" for name, tree in modules()
            for qual, fn in functions(tree)
            if any(isinstance(n, ast.Call) and target in (
                getattr(n.func, "id", None), getattr(n.func, "attr", None))
                   for n in ast.walk(fn))]


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


def test_nothing_in_assembly_reads_a_cut_side():
    # each node has one jump, the plus form on a cut, and the minus side
    # of a vertical cut is its conjugate; jump_stack may accept a side it
    # does not read (perfbench passes one by position)
    tree = dict(modules())["assembly"]
    readers = [qual for qual, fn in functions(tree)
               if any(isinstance(n, ast.Name) and n.id == "side"
                      and isinstance(n.ctx, ast.Load) for n in ast.walk(fn))]
    assert readers == []


def test_only_the_branch_point_polish_differences_the_trace():
    # the sheet reads its slope signs off the monodromy; axis_slope costs
    # a trace call on both sides of every difference and serves only the
    # Newton polish
    tree = dict(modules())["branch"]
    callers = [qual for qual, fn in functions(tree)
               if any(isinstance(n, ast.Call)
                      and isinstance(n.func, ast.Attribute)
                      and n.func.attr == "axis_slope" for n in ast.walk(fn))]
    assert callers == ["_polish_edges"]


def test_only_jump_stack_builds_the_t_independent_jump():
    # jump_stack keeps J0 of every own node, built by _own_stack, and
    # builds any other node array whole; a third caller of j0_stack would
    # rebuild it around that memo
    assert package_callers("j0_stack") == ["assembly.JumpSpec._own_stack",
                                           "assembly.JumpSpec.jump_stack"]
    assert package_callers("_own_stack") == ["assembly.JumpSpec.jump_stack"]


def test_only_the_jump_spec_panelizes_the_master_contour():
    # JumpSpec keeps its PanelSet; its memo and jump_diagnostics read
    # its panels and per-node tags, and a caller outside the package that
    # panelizes the same contour gets the same object from panelize's memo
    assert package_callers("panelize") == ["assembly.JumpSpec.__init__"]


def test_only_integrate_transfer_builds_and_evaluates_step_polynomials():
    # the four-step factors are kept per (m0, L, n_steps) and built from
    # the step polynomials alone, and the benchmark's tracer counts
    # integrations by wrapping integrate_transfer
    callers = {target: package_callers(target)
               for target in ("_step_coefficients", "_factor_coefficients",
                              "_evaluate_increments", "_pairwise_product")}
    assert callers == {
        "_step_coefficients": ["scattering._factor_coefficients"],
        "_factor_coefficients": ["scattering.integrate_transfer"],
        "_evaluate_increments": ["scattering.integrate_transfer"],
        "_pairwise_product": ["scattering.integrate_transfer"]}


def test_self_panel_rows_are_built_only_through_rows():
    # the Q-form, ((-2 Q) @ proj plus an arc's smooth part) / (2 pi i),
    # lives in _rows; _own_rows takes Q once per side for all the self
    # blocks of boundary_matrix, so an inline copy there could drift
    tree = dict(modules())["cauchy"]
    matmuls = [qual for qual, fn in functions(tree)
               if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                      for n in ast.walk(fn))]
    assert matmuls == ["_rows"]
    assert package_callers("_arc_smooth_part") == ["cauchy._rows"]
    assert package_callers("_rows") == [
        "cauchy.CauchyOperator._fill", "cauchy.CauchyOperator._own_rows"]
    assert package_callers("leg_Q_side") == ["cauchy.CauchyOperator._own_rows"]
    assert package_callers("_own_rows") == [
        "cauchy.CauchyOperator.boundary_matrix",
        "cauchy.CauchyOperator.boundary_rows_at"]
    # leg_Q_side checks the side and takes its sign; no other function
    # of the module names one
    namers = [qual for qual, fn in functions(tree)
              if any(isinstance(n, ast.Constant) and n.value in ("plus", "minus")
                     for n in ast.walk(fn))]
    assert namers == ["leg_Q_side"]


def test_only_the_fill_splits_near_from_far():
    # _fill forms the far sum for every target and writes the exact rows
    # of its near panels; a second caller of the preimage or of Q off the
    # panels would be a second near/far split to keep in step with it
    assert package_callers("_param_preimage") == ["cauchy.CauchyOperator._fill"]
    assert package_callers("leg_Q") == ["cauchy.CauchyOperator._fill"]


def test_only_the_far_sum_and_the_fill_copy_run_on_threads():
    # a pass moved onto the pool must release the GIL and set its own
    # errstate; _by_bands does neither for it, so each new caller is a
    # decision, not an accident
    assert package_callers("ThreadPoolExecutor") == ["cauchy._by_bands"]
    assert package_callers("_workers") == ["cauchy._by_bands"]
    assert package_callers("_by_bands") == [
        "cauchy.CauchyOperator._fill", "cauchy.CauchyOperator.boundary_matrix"]


def test_every_sheet_is_built_once_from_the_data_and_the_window():
    # the sheet locates its own cuts, so no function of the package builds
    # a second one, and SheetedR takes sd and the window config, no more
    assert package_callers("SheetedR") == []
    init = dict(functions(dict(modules())["branch"]))["SheetedR.__init__"].args
    assert [a.arg for a in init.posonlyargs + init.args] == ["self", "sd"]
    assert [a.arg for a in init.kwonlyargs] == ["ccfg"]
    assert init.vararg is None and init.kwarg is None


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/spans.py wraps functions by name; a rename or deletion
    # would break its traced run (--trace 1) and nothing else would notice
    path = Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for modname, owner, attr, *_ in spans.WRAPPED:
        mod = importlib.import_module(modname)
        holder = getattr(mod, owner).__dict__ if owner else vars(mod)
        if attr not in holder:
            missing.append(f"{modname}.{owner + '.' if owner else ''}{attr}")
    assert len(spans.WRAPPED) > 10
    assert missing == []
