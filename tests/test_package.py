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
