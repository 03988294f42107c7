"""Shared fixtures."""

import pytest

import irslab.space


@pytest.fixture
def small_budget(monkeypatch):
    """Lower the one byte budget to 4 KiB by patching `irslab.space._BYTE_BUDGET`
    alone; a module holding its own copy of the budget would not see it."""
    monkeypatch.setattr(irslab.space, "_BYTE_BUDGET", 1 << 12)
    return 1 << 12
