"""The package surface: one list of public names, each of which resolves."""

from __future__ import annotations

import inspect

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
