"""Shared fixtures: test curves and session-cached eigensymbols."""

import pytest

from selmerkit.curves import EllipticCurve
from selmerkit.modsym import isolate_eigensymbol

CURVES = {
    "11a1": EllipticCurve(0, -1, 1, -10, -20, conductor=11, label="11a1"),
    "14a1": EllipticCurve(1, 0, 1, 4, -6, conductor=14, label="14a1"),
    "15a1": EllipticCurve(1, 1, 1, -10, -10, conductor=15, label="15a1"),
    "17a1": EllipticCurve(1, -1, 1, -1, -14, conductor=17, label="17a1"),
    "19a1": EllipticCurve(0, 1, 1, -9, -15, conductor=19, label="19a1"),
    "26a1": EllipticCurve(1, 0, 1, -5, -8, conductor=26, label="26a1"),
    "26b1": EllipticCurve(1, -1, 1, -3, 3, conductor=26, label="26b1"),
    "27a1": EllipticCurve(0, 0, 1, 0, -7, conductor=27, label="27a1"),
    "37a1": EllipticCurve(0, 0, 1, -1, 0, conductor=37, label="37a1"),
    "37b1": EllipticCurve(0, 1, 1, -23, -50, conductor=37, label="37b1"),
    "49a1": EllipticCurve(1, -1, 0, -2, -1, conductor=49, label="49a1"),
}

# table data, ingested rather than computed: a curve carries none of it
KNOWN_RANKS = {
    "11a1": 0, "14a1": 0, "15a1": 0, "17a1": 0, "19a1": 0, "26a1": 0,
    "26b1": 0, "27a1": 0, "37a1": 1, "37b1": 0, "49a1": 0,
}

_SYMBOL_CACHE = {}


@pytest.fixture(scope="session")
def curve():
    """Factory: curve('11a1') -> EllipticCurve."""
    return CURVES.__getitem__


@pytest.fixture(scope="session")
def eigensymbol():
    """Factory: eigensymbol('11a1') -> cached normalized plus symbol."""

    def get(label):
        if label not in _SYMBOL_CACHE:
            _SYMBOL_CACHE[label] = isolate_eigensymbol(CURVES[label])
        return _SYMBOL_CACHE[label]

    return get
