"""Checks on the package source, the committed benchmark records and the
reference script behind the suite's frozen constants."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import capfield

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for p in Path(capfield.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}.{name}" for name in sorted(imported - used)]


def test_every_imported_name_is_used():
    assert SOURCES
    assert [name for path in SOURCES for name in _unused_imports(path)] == []


def _private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_definition_is_referenced():
    # a private name that nothing in src/ reads is left over from code
    # that went; tests alone do not keep it alive
    trees = {
        path: ast.parse(path.read_text())
        for path in Path(capfield.__file__).parent.glob("*.py")
    }
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    unreferenced = sorted(
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _private_definitions(tree) - referenced
    )
    assert unreferenced == []


def test_benchmark_records_are_well_formed():
    # a speed claim rests on a committed BENCH_*.json; each must name its
    # seeds and hold a parent and a change run for every pair it names
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        seeds = record.get("seeds")
        assert isinstance(seeds, list) and seeds, f"{path.name}: no seeds listed"
        sides: dict[tuple, set] = {}
        for run in record["runs"]:
            assert run["seed"] in seeds, f"{path.name}: seed {run['seed']} not listed"
            sides.setdefault((run["workload"], run["seed"]), set()).add(run["side"])
        assert sides, f"{path.name}: no runs"
        unpaired = {pair: found for pair, found in sides.items() if found != {"parent", "change"}}
        assert unpaired == {}, f"{path.name}: runs without both sides"


# the closed forms that the tests and the acceptance gate compare the
# pipeline and the oracles against; nothing in src/ needs to call them
CLOSED_FORM_DENSITIES = {
    "equilibrium.nofield_density",
    "equilibrium.pointcharge_density",
    "equilibrium.quadratic_density",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of public module-level functions and
    classes, and of public methods and properties."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _reads(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, node))
    return reads


def test_every_public_name_is_used():
    # a public name that only tests read is an interface src/ does not
    # need; its own body does not count as a reader
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    reads = [read for tree in trees.values() for read in _reads(tree)]
    unused = []
    for path, tree in trees.items():
        for qualified, definition in _public_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in inside for name, node in reads):
                unused.append(f"{path.stem}.{qualified}")
    assert sorted(set(unused) - CLOSED_FORM_DENSITIES) == []


def _half_angle_calls(tree: ast.Module) -> list[int]:
    """Lines of math.sin(0.5 * ...) and math.cos(0.5 * ...) calls."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math"
            and node.func.attr in ("sin", "cos")
            and node.args
            and isinstance(node.args[0], ast.BinOp)
            and isinstance(node.args[0].op, ast.Mult)
            and isinstance(node.args[0].left, ast.Constant)
            and node.args[0].left.value == 0.5
        ):
            lines.append(node.lineno)
    return lines


def test_rim_quantities_live_in_geometry():
    # r1, smax, the pole depth and the depth into the cap are half-angle
    # forms of the rim angle that `geometry.SphericalCap` owns; a second
    # copy elsewhere can round, or cancel, differently
    geometry = Path(capfield.__file__).parent / "geometry.py"
    assert _half_angle_calls(ast.parse(geometry.read_text()))
    found = [
        f"{path.stem}:{line}"
        for path in SOURCES
        if path.name != "geometry.py"
        for line in _half_angle_calls(ast.parse(path.read_text()))
    ]
    assert found == []


def _absolute(node: ast.ImportFrom) -> str:
    """The module an import from names; a relative one, `from . import x`
    or `from .x import y`, within the package."""
    if node.level == 0:
        return node.module
    return ".".join(filter(None, ("capfield", node.module)))


def _imported_modules(tree: ast.Module) -> list[str]:
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules += [f"{_absolute(node)}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    return modules


def test_no_module_imports_interpolation_or_fft():
    # densities, potentials and the oracles read sigma as a
    # `_numerics.GradedSeries`, tables read their own PCHIP's rows in
    # `fields`, and the Chebyshev tables take their DCT from numpy's FFT;
    # tests keep scipy's splines, interpolants and DCT as referees.  A bare
    # `import scipy` would reach the subpackages lazily
    found = sorted(
        f"{path.name}: {module}"
        for path in SOURCES
        for module in _imported_modules(ast.parse(path.read_text()))
        if module == "scipy" or module.startswith(("scipy.interpolate", "scipy.fft"))
    )
    assert found == []


def _scipy_names(tree: ast.Module, path: Path) -> list[str]:
    """file:function: name of every scipy import and of every other
    mention of `scipy` in code, with the function it sits in."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ImportFrom) and _absolute(node).split(".")[0] == "scipy":
            found.extend(f"{path.name}:{where}: {_absolute(node)}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            found.extend(f"{path.name}:{where}: {a.name}" for a in node.names
                         if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.Name) and node.id == "scipy":
            found.append(f"{path.name}:{where}: scipy")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_relative_imports_resolve_within_the_package():
    # `from . import name` has no module of its own: it is checked as
    # capfield.name, not crashed on
    tree = ast.parse(
        "from . import potential\nfrom .fields import ZeroField\nfrom scipy import special\n"
    )
    assert _imported_modules(tree) == [
        "capfield.potential", "capfield.fields.ZeroField", "scipy.special"
    ]
    assert _scipy_names(tree, Path("m.py")) == ["m.py:<module>: scipy.special"]


def test_no_module_names_scipy():
    # the ring kernel's K is an AGM, the Nystrom's sigma its own series
    # and the energy oracle's steps numpy's dense solve, so
    # no command loads scipy; the tests keep it as a referee
    found = sorted(
        name for path in SOURCES for name in _scipy_names(ast.parse(path.read_text()), path)
    )
    assert found == []


def test_fields_import_only_numerics():
    # a table must never pull in `equilibrium` or the Abel stages at
    # import, and the closed-form `support` start-up reads `fields`
    fields = Path(capfield.__file__).parent / "fields.py"
    local = []
    for node in ast.walk(ast.parse(fields.read_text())):
        if isinstance(node, ast.ImportFrom) and _absolute(node).split(".")[0] == "capfield":
            if node.module is None:
                local += [f"capfield.{a.name}" for a in node.names]
            else:
                local.append(_absolute(node))
        elif isinstance(node, ast.Import):
            local += [a.name for a in node.names if a.name.split(".")[0] == "capfield"]
    assert local == ["capfield._numerics"]


# the closed-form density code the oracles referee
CLOSED_FORM_MODULES = ("equilibrium", "singular_quadrature", "support_finder")


def test_oracles_import_nothing_from_the_closed_forms():
    # the oracles and the potentials they share cross-check the closed
    # forms and the Abel pipeline, so they must not be built from either;
    # imports inside functions count too
    package = Path(capfield.__file__).parent
    found = []
    for name in ("oracle", "potential"):
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")[-1]
                if node.level == 0 and not (node.module or "").startswith("capfield"):
                    continue
                for alias in node.names:
                    if module in CLOSED_FORM_MODULES:
                        found.append(f"{name}: {module}.{alias.name}")
                    elif alias.name in CLOSED_FORM_MODULES:
                        found.append(f"{name}: {alias.name}")
            elif isinstance(node, ast.Import):
                found += [f"{name}: {a.name}" for a in node.names
                          if a.name.split(".")[-1] in CLOSED_FORM_MODULES]
    assert found == []


def test_importing_the_oracles_executes_no_closed_form_module():
    # the static check above sees the oracles' own imports; this one sees
    # every module that importing them executes, through any chain
    closed = [f"capfield.{name}" for name in CLOSED_FORM_MODULES]
    code = ("import sys, capfield.oracle, capfield.potential; "
            f"print([m for m in {closed!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(capfield.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# the modules a closed-form command imports; they take numpy from the
# lazy handle of `_numerics`, so that numpy executes only when used
START_UP_MODULES = ("cli", "_numerics", "fields", "geometry", "support_finder")


def test_start_up_modules_import_numpy_lazily():
    package = Path(capfield.__file__).parent
    found = []
    for name in START_UP_MODULES:
        tree = ast.parse((package / f"{name}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.Import):
                found += [f"{name}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "numpy":
                    found.append(f"{name}: from {node.module}")
    assert found == []


def test_no_module_imports_roots_legendre():
    # the Gauss-Legendre rules are `_numerics.gauss_legendre`'s, more
    # accurate than scipy's and without scipy
    found = sorted(
        f"{path.name}: {module}"
        for path in SOURCES
        for module in _imported_modules(ast.parse(path.read_text()))
        if module.endswith(".roots_legendre")
    )
    assert found == []


def test_reference_script_reproduces_every_frozen_constant():
    # the 60-digit script is the ground truth for the suite's constants
    script = ROOT / "tests" / "oracles" / "compute_reference_values.py"
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
