"""The package's public names."""

import dropattack


def test_every_exported_name_resolves():
    missing = [name for name in dropattack.__all__ if not hasattr(dropattack, name)]
    assert not missing, missing
    assert len(set(dropattack.__all__)) == len(dropattack.__all__)
