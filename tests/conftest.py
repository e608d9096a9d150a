"""Fixtures shared by every test module."""

import pytest

from frozenrank import harness


@pytest.fixture(autouse=True)
def _fresh_support_memo():
    """Each test starts and ends with an empty support memo, so a test that
    monkeypatches the sampler leaves no entry behind for the next one."""
    harness._leaf_removal_of.cache_clear()
    yield
    harness._leaf_removal_of.cache_clear()
