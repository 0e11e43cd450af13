import clipreg


def test_all_names_resolve():
    assert len(set(clipreg.__all__)) == len(clipreg.__all__)
    assert [name for name in clipreg.__all__ if not hasattr(clipreg, name)] == []


def test_star_import():
    namespace = {}
    exec("from clipreg import *", namespace)
    assert set(clipreg.__all__) <= set(namespace)
