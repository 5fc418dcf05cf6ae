import spexcess


def test_every_exported_name_resolves():
    missing = [name for name in spexcess.__all__ if not hasattr(spexcess, name)]
    assert not missing
    assert len(set(spexcess.__all__)) == len(spexcess.__all__)
