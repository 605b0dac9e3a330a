"""Every exported name resolves, and so does every hook the benchmark patches."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import doblab

# __main__ runs the CLI on import
MODULES = [m.name for m in pkgutil.iter_modules(doblab.__path__) if m.name != "__main__"]
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def test_package_exports_resolve():
    missing = [name for name in doblab.__all__ if not hasattr(doblab, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"doblab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_benchmark_tracer_hooks_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, *_ in tracer.PATCHES:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_import_loads_no_other_third_party_package():
    # every CLI call pays for what `import doblab` loads.  numpy and
    # scipy.integrate are the dependencies, and what they load on their own
    # (numpy.f2py, which scipy touches, loads charset_normalizer) is the
    # baseline; doblab may add only standard-library modules to it
    code = (
        "import sys\n"
        "import numpy, scipy.integrate\n"
        "before = set(sys.modules)\n"
        "import doblab, doblab.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(*sorted(new - set(sys.stdlib_module_names) - {'doblab'}))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.split() == []
