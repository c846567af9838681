"""Rules on the package source that no behaviour test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitlab"

# sum() compensates float sums from Python 3.12 on, so a float sum would
# move the last bits of a report between interpreters; these add only
# integers or booleans, or test finiteness alone
SUM_ALLOWED = {
    "_kernels._rows_pay": "integer counts of distinct coordinates",
    "density.epsilon_density": "booleans: the covered grid points",
    "operators.DyadicChain.of": "integer quarter turns",
    "winding.concat_additivity_check": "integer winding numbers",
    "criteria._peak": "finiteness only: inf or NaN in any norm carries into the sum",
}


def _sum_sites():
    """The enclosing module.function of every use of the name `sum`."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Name) and node.id == "sum":
            sites.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), (path.stem,))
    return sites


def test_sum_adds_no_floats():
    """Floats are added left to right with `+=`; sum() only where listed,
    and every listed function still uses it."""
    assert sorted(set(_sum_sites())) == sorted(SUM_ALLOWED)
