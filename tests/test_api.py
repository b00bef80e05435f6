"""The public surface: ``plurigenera.__all__`` names what the package
exports, once each, in sorted order."""

import plurigenera


def test_every_export_resolves_once_in_sorted_order():
    names = plurigenera.__all__
    assert [name for name in names if not hasattr(plurigenera, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
