import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# numpy names that reach BLAS or LAPACK on float arrays
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg",
              "cov", "corrcoef", "polyfit", "lstsq"}


def test_package_calls_no_blas_routine():
    # lorenzlab loads OpenBLAS with one thread (lorenzlab/__init__.py), which
    # costs nothing only while no module hands BLAS any work; a new caller
    # must fail here rather than only run slower
    found = []
    for path in sorted((SRC / "lorenzlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in BLAS_NAMES:
                found.append((path.name, node.lineno, name))
    assert found == []


# the variables OpenBLAS reads for its pool size
POOL_VARIABLES = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}


def _fresh(code, **env):
    """Stdout lines of ``code`` run in a new interpreter that imports
    lorenzlab from src/, with OpenBLAS's pool variables taken only from
    ``env``."""
    environ = {k: v for k, v in os.environ.items() if k not in POOL_VARIABLES}
    environ.update(env, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=environ, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return out.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc/self/task")
def test_import_loads_openblas_with_one_thread():
    count = "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    # numpy's own pool: one thread per CPU it may run on
    pool = int(_fresh("import os, numpy; " + count)[0])
    assert _fresh("import os, lorenzlab; " + count) == ["1", "None"]
    assert _fresh("import os, lorenzlab; " + count,
                  OPENBLAS_NUM_THREADS="2") == [str(min(2, pool)), "2"]
    # OpenBLAS also reads the other two pool variables, so a caller's value
    # there is left alone too
    for variable in ("OMP_NUM_THREADS", "GOTO_NUM_THREADS"):
        assert _fresh("import os, lorenzlab; " + count,
                      **{variable: "2"}) == [str(min(2, pool)), "None"], variable
    assert _fresh("import os, numpy, lorenzlab; " + count) == [str(pool), "None"]
