import comp_noma


def test_every_exported_name_resolves():
    for name in comp_noma.__all__:
        assert hasattr(comp_noma, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from comp_noma import *", namespace)
    assert set(comp_noma.__all__) <= set(namespace)
