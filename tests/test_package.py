import ast
import glob
import os
import subprocess
import sys

import spinbh


def test_every_lazy_export_resolves():
    for name in spinbh.__all__:
        assert getattr(spinbh, name) is not None, name


def test_cli_import_leaves_numpy_unloaded():
    # SPINBH_THREADS only caps the BLAS pools if it is applied before numpy loads
    src = os.path.dirname(os.path.dirname(spinbh.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, spinbh.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_dynamics_import_leaves_csgraph_unloaded():
    # the dense propagator imports the graph search on first use, not at import
    src = os.path.dirname(os.path.dirname(spinbh.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, spinbh.dynamics; assert 'scipy.sparse.csgraph' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_no_module_level_import_goes_unused():
    # neither pyflakes nor ruff is a dependency; this is their unused-import rule
    unused = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(spinbh.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{os.path.basename(path)}: {name}" for name in imported if name not in used]
    assert not unused
