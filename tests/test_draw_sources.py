"""numpy's random generators appear in src/fedmtl only where data is made or
split: a round's draws come from the package's own counter-based draws
(solver.draw_integers, draw_random and draw_permutations), never from a
per-node numpy Generator."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedmtl"

# (module, function) of every use of np.random that may stay.
ALLOWED = {
    ("data.py", "generate_synthetic"),
    ("data.py", "train_test_split"),
    ("baselines.py", "model_select"),
}


def _uses(tree):
    """(function, line) of every np.random attribute in ``tree``, and of every
    import of numpy.random, with the function that holds it, or None at
    module level."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            if (isinstance(child, ast.Attribute) and child.attr == "random"
                    and isinstance(child.value, ast.Name) and child.value.id in ("np", "numpy")):
                yield function, child.lineno
            elif isinstance(child, ast.ImportFrom) and (
                    child.module == "numpy.random"
                    or child.module == "numpy" and any(a.name == "random" for a in child.names)):
                yield function, child.lineno
            elif isinstance(child, ast.Import) and any(
                    a.name == "numpy.random" for a in child.names):
                yield function, child.lineno
            yield from walk(child, inner)
    yield from walk(tree, None)


def test_np_random_only_in_data_generation_and_splits():
    found = {(path.name, function): line
             for path in sorted(PACKAGE.glob("*.py"))
             for function, line in _uses(ast.parse(path.read_text(), str(path)))}
    assert set(found) == ALLOWED, found
