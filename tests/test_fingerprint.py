import importlib.util
from pathlib import Path

import numpy as np
import pytest

from storageplan import instances

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_m2_digest_repeats():
    first = fingerprint.digest(fingerprint.bundled_runs(instances.m2()))
    again = fingerprint.digest(fingerprint.bundled_runs(instances.m2()))
    assert first == again
    assert len(first) == 64
    assert first != fingerprint.digest(
        fingerprint.bundled_runs(instances.m2_outer()))


@pytest.mark.parametrize("a, b", [
    (1.0, np.nextafter(1.0, 2.0)),
    (np.zeros(2), np.zeros((2, 1))),
    ({"x": 1}, {"x": 1.0}),
    ([1.0, 2.0], [2.0, 1.0]),
])
def test_distinct_values_give_distinct_digests(a, b):
    assert fingerprint.digest([("v", a)]) != fingerprint.digest([("v", b)])
