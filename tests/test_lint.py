"""Source rules that no unit test would catch."""

import ast
import importlib
import importlib.util
from pathlib import Path

import wfalab

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "wfalab"


def test_no_assert_statements_in_the_package():
    """python -O strips assert, so a correctness check must raise instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


NUMPY_SORTS = {"sort", "argsort", "lexsort", "unique", "partition",
               "argpartition", "median"}


def test_no_numpy_sorts_in_the_package():
    """The package sorts with Python's sorted: numpy's first sort in a
    process maps about 0.4 MB more code, which every run's peak memory
    would carry."""
    found = [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in NUMPY_SORTS
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert not found, found


def _imports_pl1d(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "wfalab.pl1d" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module in ("pl1d", "wfalab.pl1d"):
            return True
        return (node.module in (None, "wfalab")
                and any(a.name == "pl1d" for a in node.names))
    return False


def test_engine_does_not_import_pl1d():
    """pl1d is the tests' exact oracle for the extended-cost kernel; only the
    package's public namespace re-exports it."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if _imports_pl1d(node)]
    assert not found, found


def test_no_package_imports_inside_functions():
    """A relative import inside a function hides an import cycle; the
    package's modules import each other at module level."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not found, found


def test_all_lists_exactly_the_public_imports():
    """wfalab.__all__ and the imports of wfalab/__init__.py are both kept by
    hand; a name added to or removed from one must be in step with the
    other."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [a.asname or a.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names if not (a.asname or a.name).startswith("_")]
    assert len(wfalab.__all__) == len(set(wfalab.__all__))
    assert sorted(wfalab.__all__) == sorted(imported)


def _is_cache(decorator) -> bool:
    """functools.lru_cache or functools.cache, called or not, by either
    name."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = (decorator.attr if isinstance(decorator, ast.Attribute)
            else getattr(decorator, "id", None))
    return name in ("lru_cache", "cache")


def test_no_cache_keyed_on_a_work_function():
    """A module-level cache keyed on a work function pins it, and its size
    is a guess at the traffic; the potential's memo of a work function
    lives exactly as long as the work function does."""
    found = [f"{path.name}:{fn.lineno} {fn.name}"
             for path in sorted(SRC.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_is_cache(d) for d in fn.decorator_list)
             for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
             if a.annotation is not None
             and ast.unparse(a.annotation).strip("'\"") == "WorkFunction"]
    assert not found, found


def test_traced_benchmark_names_exist():
    """bench/run.py --trace 1 wraps each (module, attribute) of bench/spans.py's
    SPANNED, COUNTED and SIZED tables, "Class.method" included; a name the
    package no longer has breaks the traced benchmark and nothing else."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr, name in spans.SPANNED + spans.COUNTED + spans.SIZED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr} ({name})")
    assert not missing, missing


def test_potential_reads_no_grid_layout():
    """The potential works on positions and W at them: grid indices and the
    layout of a work function's stored lines stay in workfn."""
    layout = {"xr", "yr", "lines", "_line_cells"}
    found = [f"potential.py:{node.lineno} {node.attr}"
             for node in ast.walk(ast.parse((SRC / "potential.py").read_text()))
             if isinstance(node, ast.Attribute) and node.attr in layout]
    assert not found, found


# Modules and public names that only the tests reach, each for a reason.
TEST_ONLY = {
    # The extended cost's exact oracle.  It stays in the package while
    # bench/spans.py wraps its names, so that the traced benchmark runs.
    "pl1d",
    # The tests' oracle for W at any configuration; brute_force_opt, built
    # on the same sweep, is the one the harness runs.
    "offline.brute_force_work_value",
}


def _used_names(path: Path) -> set:
    """The names a source file's code uses: each Name, Attribute and import
    alias, not the words of its docstrings or strings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_function_has_a_caller():
    """Each public module-level function or class of the package is named by
    code in src/ or bench/, or exported by wfalab.__all__.  One that only
    the tests reach is a test oracle: it belongs with the tests."""
    used = set(wfalab.__all__)
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        used |= _used_names(path)
    found = [f"{path.stem}.{node.name}"
             for path in sorted(SRC.glob("*.py")) if path.stem not in TEST_ONLY
             for node in ast.parse(path.read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_") and node.name not in used]
    assert not set(found) - TEST_ONLY, found
