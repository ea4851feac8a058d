import ast
import glob
import os
import subprocess
import sys

import spinbh


def _modules():
    """(file name, syntax tree) of every module of the package."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(spinbh.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read())


def test_every_lazy_export_resolves():
    for name in spinbh.__all__:
        assert getattr(spinbh, name) is not None, name


def test_cli_import_leaves_numpy_unloaded():
    # SPINBH_THREADS only caps the BLAS pools if it is applied before numpy loads
    src = os.path.dirname(os.path.dirname(spinbh.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, spinbh.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_runs_leave_scipy_linalg_and_csgraph_unloaded(tmp_path):
    # dynamics runs on numpy.linalg and its own component search, so scipy
    # serves sparse matrices only: neither a dense run (fig2_sz) nor a
    # Lanczos one (fig2_mx) loads the two modules, whose import takes the
    # RSS of numpy and scipy.sparse from 48.6 to 60.1 MB
    src = os.path.dirname(os.path.dirname(spinbh.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "\n".join([
        "import importlib, pkgutil, sys",
        "import spinbh",
        "for module in pkgutil.iter_modules(spinbh.__path__):",
        "    importlib.import_module('spinbh.' + module.name)",
        "for preset in ('fig2_mx', 'fig2_sz'):",
        f"    out = {str(tmp_path)!r} + '/' + preset",
        "    assert spinbh.cli.main(['--preset', preset, '--out-dir', out, '--quiet']) == 0",
        "loaded = {'scipy.linalg', 'scipy.sparse.csgraph'} & set(sys.modules)",
        "assert not loaded, loaded",
    ])
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert (tmp_path / "fig2_mx" / "compare_mx.csv").exists()


def test_no_module_level_import_goes_unused():
    # neither pyflakes nor ruff is a dependency; this is their unused-import rule
    unused = []
    for module, tree in _modules():
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{module}: {name}" for name in imported if name not in used]
    assert not unused


def test_no_private_module_name_goes_unused():
    # a module-level _name is reachable only from its own module, so a helper,
    # class or constant that no other statement there names is dead code
    unused = []
    for module, tree in _modules():
        named = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)} for node in tree.body]
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            used = set().union(*named[:i], *named[i + 1:])
            unused += [f"{module}: {name}" for name in defined
                       if name.startswith("_") and not name.startswith("__") and name not in used]
    assert not unused


def test_only_the_command_line_prints():
    # library code raises or returns what it finds; cli.py alone turns it into text
    printing = [f"{module}:{node.lineno}" for module, tree in _modules() if module != "cli.py"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"]
    assert not printing


def test_no_module_warns():
    # a regime warning is a string that model.validate returns and cli.py
    # prints; Python's once-per-location registry would hide it on a rerun
    warning = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            elif isinstance(node, ast.Call):
                names = [getattr(node.func, "attr", getattr(node.func, "id", None))]
            else:
                continue
            if "warnings" in names or "warn" in names:
                warning.append(f"{module}:{node.lineno}")
    assert not warning


def test_only_the_command_line_reads_the_environment():
    # SPINBH_THREADS is checked once, in cli.main, before numpy loads
    reading = [f"{module}:{node.lineno}" for module, tree in _modules() if module != "cli.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
               or isinstance(node, ast.ImportFrom) and node.module == "os"]
    assert not reading
