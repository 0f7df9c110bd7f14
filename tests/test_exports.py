"""The package's export list matches what the package binds."""

from types import ModuleType

import monocnf


def test_all_lists_exactly_the_public_names():
    for name in monocnf.__all__:
        assert hasattr(monocnf, name), name
    public = {
        name
        for name, value in vars(monocnf).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(monocnf.__all__) == sorted(public)
