import missgraph


def test_every_exported_name_resolves_once():
    names = missgraph.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(missgraph, name), name


def test_star_import():
    namespace: dict = {}
    exec("from missgraph import *", namespace)
    assert set(missgraph.__all__) <= set(namespace)


def test_removed_names_absent():
    removed = (
        "make_ensemble",
        "ImputationEnsemble",
        "apply_mechanism",
        "apply_mechanisms",
    )
    for name in removed:
        assert name not in missgraph.__all__
        assert not hasattr(missgraph, name)
