"""The public surface: ``plurigenera.__all__`` names what the package
exports, once each, in sorted order."""

import dataclasses
import inspect

import plurigenera


def test_every_export_resolves_once_in_sorted_order():
    names = plurigenera.__all__
    assert [name for name in names if not hasattr(plurigenera, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_retired_names_stay_retired():
    # each has an exact replacement in README "Removed from the API"
    assert not hasattr(plurigenera.FibreDatum, "wild_fibre")
    assert "CoefficientSet" not in plurigenera.__all__
    assert len(inspect.signature(plurigenera.check_condition_U_bruteforce).parameters) == 1
    fields = {f.name for f in dataclasses.fields(plurigenera.SurfaceInvariants)}
    assert "minimal" not in fields
