"""Every top-level function, class and assigned name in src/fedmtl must be
read by some module that is not a test, or be listed in ALLOWED with the
reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedmtl"

# Names that nothing outside the tests reads, each with its reason.
ALLOWED = {
    "__version__": "the package's version, read by its users",
    "verify_lemma_decrease": "theory verifier that ROADMAP item 5's summary will run",
    "verify_sigma_prime_inequality": "sigma' certificate that ROADMAP item 5's summary will run",
}


def _modules():
    """Every module that is not a test: the package and perfbench."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), str(path))
            for path in paths if not path.name.startswith("test_")}


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TARGETS"
                for target in node.targets):
            # perfbench's tracer patches (module, "owner.attribute", span) by name.
            for entry in node.value.elts:
                yield from entry.elts[1].value.split(".")


def test_every_package_name_is_read_or_allowed():
    modules = _modules()
    read = {name for tree in modules.values() for name in _read(tree)}
    unread = {name for path, tree in modules.items() if path.parent == PACKAGE
              for name in _defined(tree) if name not in read}
    assert unread == set(ALLOWED)
