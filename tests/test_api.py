"""The package's public names."""

import types

import socproj


def test_all_is_explicit_and_lists_no_modules():
    assert len(set(socproj.__all__)) == len(socproj.__all__)
    for name in socproj.__all__:
        assert not isinstance(getattr(socproj, name), types.ModuleType), name


def test_all_covers_every_public_non_module_name():
    public = {
        name
        for name in dir(socproj)
        if not name.startswith("_")
        and not isinstance(getattr(socproj, name), types.ModuleType)
    }
    assert public == set(socproj.__all__)
