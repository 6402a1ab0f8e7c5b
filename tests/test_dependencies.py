"""numpy is the package's only runtime dependency: scipy, sympy and hypothesis
are test extras, so no module under src/carnotperim may import them.  Parts
of numpy that cost import time stay unloaded where they are not needed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import carnotperim

TEST_ONLY = {"scipy", "sympy", "hypothesis"}


def imported_roots(source):
    """The top-level package of every absolute import in a module's source."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_runtime_module_imports_a_test_extra():
    modules = sorted(Path(carnotperim.__file__).parent.rglob("*.py"))
    assert len(modules) >= 11
    found = {p.name: sorted(imported_roots(p.read_text()) & TEST_ONLY) for p in modules}
    assert {name: roots for name, roots in found.items() if roots} == {}


def test_the_scan_sees_nested_and_dotted_imports():
    source = "def f():\n    import scipy.stats as st\n    from sympy import S\nfrom . import mc\n"
    assert imported_roots(source) == {"scipy", "sympy"}


def test_verify_symmetry_leaves_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma on its first call, 9-13 ms of a verify run
    src = Path(carnotperim.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from carnotperim.cli import main\n"
        "main(['verify', '--suite', 'symmetry', '--gauge', 'starball:rho=0.5',\n"
        "      '--samples', '2000', '--out', sys.argv[1]])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "verify.json")], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.splitlines()[-1] == "False"
