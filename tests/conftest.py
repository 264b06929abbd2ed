import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from nanoshell import transfer  # noqa: E402


@pytest.fixture(autouse=True)
def _no_shared_prepares():
    """Start every test with no prepare held for single queries, so a
    test that patches engine internals before it evaluates builds its own
    (transfer.shared_prepare)."""
    transfer._SHARED.clear()
    yield
    transfer._SHARED.clear()
