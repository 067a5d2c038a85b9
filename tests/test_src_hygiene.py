"""A standard-library `ast` scan of the package source for dead code, and
a text scan for numpy's random subpackage.

- No module of `src/fmcheck` imports a name that it neither uses nor lists
  in `__all__`.
- Every top-level function or class of `src/` is referenced from `src/`
  (the CLI included) or `scripts/`, or is a function that the benchmark's
  tracer wraps (`fmbench/fmtrace.py`'s `TRACED`), or is in `ALLOWED` with
  its reason.  A definition's own body does not count as its reference.
- No file under `src/` names numpy's random subpackage: the sample points
  come from `manifold._PCG64`, and importing it costs a cold `verify`
  about 6 MB and 19 modules.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fmcheck"

# top-level definitions kept with no caller in src/ or scripts/, and why
ALLOWED = {
    ("hamops", "emit_operator"): "the paper's operator emission, checked by acceptance "
                                 "criterion 1",
}


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(node: ast.stmt) -> list:
    """The function or class a top-level statement defines."""
    return [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []


def _loaded(node: ast.AST) -> set:
    """The names read in `node`: as a name, or as an attribute of anything."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
               and isinstance(n.ctx, ast.Load)})


def _traced() -> set:
    path = ROOT / "fmbench" / "fmtrace.py"
    spec = importlib.util.spec_from_file_location("fmtrace_for_hygiene", path)
    fmtrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fmtrace)
    return set(fmtrace.TRACED)


def _modules() -> dict:
    return {path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_a_name_it_neither_uses_nor_exports():
    unused = []
    for name, tree in _modules().items():
        used = _loaded(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_top_level_definition_has_a_caller():
    # each top-level statement of src/ and scripts/ with the names it reads;
    # a definition's own statement is not its caller
    statements = []
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    for path in sources:
        for node in _tree(path).body:
            statements.append((path, node, _loaded(node)))
    kept = _traced() | set(ALLOWED)
    dead = []
    for path, node, _ in statements:
        if path.parent != PACKAGE:
            continue
        for name in _defined(node):
            if name.startswith("__") or (path.stem, name) in kept:
                continue
            if not any(name in loaded for _, other, loaded in statements if other is not node):
                dead.append(f"{path.stem}.{name}")
    assert dead == []


def test_src_never_names_numpys_random_subpackage():
    named = [str(path.relative_to(ROOT)) for path in sorted((ROOT / "src").rglob("*"))
             if path.is_file() and any(word in path.read_bytes()
                                       for word in (b"np.random", b"numpy.random"))]
    assert named == []
