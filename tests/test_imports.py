"""Which private names cross module boundaries inside the package."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hidden_ar"

# Each private name imported by another module: the score increments that
# onestep sums, the (S*^2, I) pair the harness's targets read from one
# evaluation of the track moments, and the likelihood surface the harness
# shares across the grid estimators of one prefix.
CROSSING = {
    ("onestep", "kalman", "_score_increments"),
    ("harness", "model_core", "_excess_and_information"),
    ("harness", "likelihood", "_Surface"),
}


def test_private_imports_across_modules():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update((path.stem, node.module, alias.name) for alias in node.names if alias.name.startswith("_"))
    assert found == CROSSING
