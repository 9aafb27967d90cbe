import nablafrac


def test_every_exported_name_resolves():
    assert [name for name in nablafrac.__all__ if not hasattr(nablafrac, name)] == []
