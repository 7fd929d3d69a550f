import storageplan


def test_every_exported_name_resolves():
    missing = [name for name in storageplan.__all__
               if not hasattr(storageplan, name)]
    assert missing == []
