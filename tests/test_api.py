"""The public surface: every exported name resolves, and so does every name
the benchmark scripts in bench/ import from the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import circlewarp

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ["circlewarp"] + [
    f"circlewarp.{info.name}" for info in pkgutil.iter_modules(circlewarp.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def bench_imports():
    """(file, module, name) for every import of the package in bench/*.py;
    name is None for a plain `import circlewarp...`."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] == "circlewarp":
                    found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name.split(".")[0] == "circlewarp"
                ]
    return found


def test_bench_imports_resolve():
    imports = bench_imports()
    assert imports, "no import of circlewarp found under bench/"
    missing = []
    for fname, module, name in imports:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            missing.append((fname, module, name))
            continue
        if name is not None and not hasattr(mod, name):
            # `from circlewarp import fourier` names a submodule
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append((fname, module, name))
    assert not missing, f"bench/ imports that no longer resolve: {missing}"


def test_bench_config_reads_resolve():
    """bench/warp.py reads settings and constants off `cfg = DerandConfig()`;
    each name it reads must still be an attribute of a default config."""
    from circlewarp import DerandConfig

    path = BENCH / "warp.py"
    names = {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cfg"
    }
    assert "q_floor_exponent" in names, "no cfg.<name> read found in bench/warp.py"
    cfg = DerandConfig()
    missing = sorted(name for name in names if not hasattr(cfg, name))
    assert not missing, f"bench/warp.py reads DerandConfig names that do not resolve: {missing}"
