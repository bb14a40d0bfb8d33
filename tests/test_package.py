import ivpoly


def test_every_exported_name_resolves_once():
    # A name left in __all__ after its import is gone breaks `from ivpoly import *`.
    assert len(ivpoly.__all__) == len(set(ivpoly.__all__))
    assert [name for name in ivpoly.__all__ if not hasattr(ivpoly, name)] == []
