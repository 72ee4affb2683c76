"""Every import in ``src/qregsim`` is read by the module that makes it, and
every private top-level name by some module of the package.  No algorithm
module imports the circuit format or the CLI, which sit above it.

The project has no linter, so these tests parse each module with ``ast``.
An import counts as used when the module reads it or lists it in ``__all__``.
A private function, class or assignment counts as used when any module
reads it as a name or an attribute.
The one exception is an import that only the benchmark's tracer reads: its
line ends with ``# noqa: F401  (bound by perfbench/tracing.py)``, and
``BINDINGS`` in perfbench/tracing.py rebinds that name on that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qregsim"
TRACER_MARK = "# noqa: F401  (bound by perfbench/tracing.py)"

#: The imports kept only for the tracer to rebind.
TRACER_ONLY = {
    ("qregsim.circuit", "basis_state"),
    ("qregsim.algorithms.grover", "basis_state"),
    ("qregsim.algorithms.grover", "measure_all"),
    ("qregsim.algorithms.qam", "measure_all"),
    ("qregsim.algorithms.qam", "amplify"),
    ("qregsim.algorithms.qrng", "measure_all"),
    ("qregsim.algorithms.qrng", "uniform_superposition"),
    ("qregsim.algorithms.shor", "measure_qubits"),
}


def _tracer_bindings():
    """The ``(module, name)`` pairs in perfbench/tracing.py's ``BINDINGS``,
    read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BINDINGS"]:
            return {(consumer, name) for consumer, name, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py has no BINDINGS tuple")


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


def _scan():
    """``(unused, tracer_only)``: unused imports as ``path:line: name``, and
    the ``(module, name)`` pairs of the imports marked for the tracer."""
    unused, tracer_only = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        module = _module_name(path)
        used = _exported(tree) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name in used:
                    continue
                if lines[node.end_lineno - 1].endswith(TRACER_MARK):
                    tracer_only.add((module, name))
                else:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unused, tracer_only


def _imported_modules(path, tree):
    """The modules that ``path``'s imports name, relative ones resolved.  A
    ``from`` import also names each imported name as a submodule, since
    ``from .. import circuit`` imports the module ``circuit``."""
    package = path.relative_to(PACKAGE.parent).with_suffix("").parts[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else ()
            module = ".".join((*base, *([node.module] if node.module else [])))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions():
    """``(unread, defined)``: the private top-level functions, classes and
    assigned names that no module of the package reads, as ``path:line:
    name``, and how many such names there are in all."""
    reads, defined = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            defined += [(where, name) for name in names if _is_private(name)]
    return [f"{where}: {name}" for where, name in defined if name not in reads], len(defined)


def test_every_import_is_used():
    unused, _ = _scan()
    assert not unused


def test_tracer_only_imports_are_bound_by_the_tracer():
    _, tracer_only = _scan()
    assert tracer_only == TRACER_ONLY
    assert tracer_only <= _tracer_bindings()


def test_every_private_definition_is_read():
    unread, defined = _private_definitions()
    assert defined > 50 and not unread


def test_algorithms_import_neither_the_circuit_format_nor_the_cli():
    above = ("qregsim.circuit", "qregsim.cli")
    found = [
        f"{path.relative_to(ROOT)}: {module}"
        for path in sorted((PACKAGE / "algorithms").rglob("*.py"))
        for module in _imported_modules(path, ast.parse(path.read_text()))
        if any(module == name or module.startswith(name + ".") for name in above)
    ]
    assert not found
