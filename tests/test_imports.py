"""Which private names cross module boundaries inside the package."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hidden_ar"

# Each private name imported by another module: the score increments that
# onestep sums, the per-step filter kernel the adaptive filter's plug-in
# steps run on with the finiteness check of a track's end, the (S*^2, I)
# pair the harness's targets read from one evaluation of the track moments,
# the likelihood surface the harness shares across the grid estimators of
# one prefix, the checkpoint means (one solve over every checkpoint's
# windows) and the checkpoint time rule the harness reads from adaptive,
# learning_interval's guarded floor that rule applies, the filter memory J
# and the largest |a| of a problem it is taken at, which cut both the
# likelihood's lag sums and those windows, and the variance step the
# transient filter iterates with the variance above which it divides its
# step forms through by gamma.
CROSSING = {
    ("onestep", "kalman", "_score_increments"),
    ("adaptive", "kalman", "_solve"),
    ("adaptive", "kalman", "_finite_end"),
    ("adaptive", "onestep", "_guarded_floor"),
    ("adaptive", "model_core", "_memory"),
    ("adaptive", "model_core", "_largest_a"),
    ("harness", "model_core", "_excess_and_information"),
    ("harness", "likelihood", "_Surface"),
    ("harness", "adaptive", "_checkpoint_means"),
    ("harness", "adaptive", "_checkpoint_time"),
    ("likelihood", "model_core", "_memory"),
    ("likelihood", "model_core", "_largest_a"),
    ("kalman", "model_core", "_large_variance"),
    ("kalman", "model_core", "_variance_step"),
}


def test_private_imports_across_modules():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update((path.stem, node.module, alias.name) for alias in node.names if alias.name.startswith("_"))
    assert found == CROSSING
