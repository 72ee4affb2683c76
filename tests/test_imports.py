"""Every import in ``src/qregsim`` is read by the module that makes it.

The project has no linter, so these tests parse each module with ``ast``.
A name counts as used when the module reads it or lists it in ``__all__``.
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


def test_every_import_is_used():
    unused, _ = _scan()
    assert not unused


def test_tracer_only_imports_are_bound_by_the_tracer():
    _, tracer_only = _scan()
    assert tracer_only == TRACER_ONLY
    assert tracer_only <= _tracer_bindings()
