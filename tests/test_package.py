import bridgefill


def test_every_exported_name_resolves():
    missing = [name for name in bridgefill.__all__ if not hasattr(bridgefill, name)]
    assert missing == []
    assert len(set(bridgefill.__all__)) == len(bridgefill.__all__)
