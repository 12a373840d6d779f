"""The package surface: one list of public names, each of which resolves."""

from __future__ import annotations

import inspect
import os
import re
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


def _python(code: str, cwd=None) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this projsum."""
    src = str(Path(projsum.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True).stdout


def test_importing_the_console_leaves_scipy_unloaded():
    # SciPy is imported where the kernel and the transport LP first run, so a
    # console command that needs neither, a usage error among them, does not pay for it
    code = "import sys, projsum.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python(code).strip() == "[]"


def test_importing_the_console_builds_no_parser():
    # the parser is built on the first `main` call, so an import pays nothing for it
    code = "import projsum.cli as cli; print(cli._build_parser.cache_info().currsize)"
    assert _python(code).strip() == "0"


def test_sample_and_check_load_no_scipy_module(tmp_path):
    # only `converge` solves the transport LP and reads the HiGHS version for its manifest; the
    # others load no SciPy module at all, which keeps their start-up to NumPy's
    flags = "'--n', '16', '--a', '0.625', '--alpha', '0', '--alpha-prime', '1', '--b', '0.875', '--beta', '0', '--beta-prime', '0.8'"
    code = (
        "import sys; from projsum.cli import main; "
        f"assert main(['sample', {flags}, '--out-prefix', 'run']) == 0; "
        f"assert main(['check', {flags}, '--out-prefix', 'chk']) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _python(code, cwd=tmp_path).strip().splitlines()[-1] == "[]"


def test_the_benchmark_traced_names_resolve():
    # the benchmark patches these functions by name only when it traces, so a
    # renamed or retired one would otherwise pass every untraced run
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = f"""
import importlib.util, operator, sys
sys.path.insert(0, {str(perfbench)!r})
spec = importlib.util.spec_from_file_location("perfbench_run", {str(perfbench / "run.py")!r})
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
import projsum, tracer
targets = run.traced_targets()
modules = [projsum, *(getattr(projsum, m) for m in ("model", "geometry", "spectra", "hermitization", "convergence", "cli"))]
restore = tracer.install(tracer.Tracer(), modules, targets)
patched = all(operator.attrgetter(name)(projsum) is not fn for name, (fn, _) in targets.items())
restore()
restored = all(operator.attrgetter(name)(projsum) is fn for name, (fn, _) in targets.items())
print(len(targets), patched, restored)
"""
    assert _python(code).split() == ["14", "True", "True"]


def test_ci_replays_every_command():
    # CI runs each command that writes a manifest through `replays` of .github/console.sh, which
    # checks that the run and its replay print nothing but check's verdict and write the same bytes
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    replayed = set(re.findall(r"^\s*replays \S+ \S+ (\w+)", workflow.read_text(encoding="utf-8"), re.M))
    assert {"sample", "check", "potential", "recover", "converge"} <= replayed
