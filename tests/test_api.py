import sagnacsim


def test_all_resolves_sorted_without_repeats():
    names = sagnacsim.__all__
    assert [name for name in names if not hasattr(sagnacsim, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
