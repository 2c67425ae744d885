import headkv


def test_all_names_resolve_once():
    assert len(headkv.__all__) == len(set(headkv.__all__))
    missing = [name for name in headkv.__all__ if not hasattr(headkv, name)]
    assert missing == []
    namespace: dict = {}
    exec("from headkv import *", namespace)
    assert set(headkv.__all__) <= set(namespace)
