"""The package surface: one list of public names, each of which resolves."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import projsum
from projsum import convergence, geometry, hermitization, model, spectra


def test_all_is_the_union_of_the_module_surfaces():
    modules = (model, geometry, spectra, hermitization, convergence)
    listed = [name for module in modules for name in module.__all__]
    assert len(set(listed)) == len(listed)
    assert sorted(projsum.__all__) == sorted(listed)
    for module in modules:
        for name in module.__all__:
            assert getattr(projsum, name) is getattr(module, name)
    # every public name the package binds is listed, so a retired name left
    # behind in an import fails here
    bound = {
        name
        for name, value in vars(projsum).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert bound == set(projsum.__all__)


def test_importing_the_console_leaves_scipy_unloaded():
    # SciPy is imported where the kernel and the transport LP first run, so a
    # console command that needs neither, a usage error among them, does not pay for it
    src = str(Path(projsum.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, projsum.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
