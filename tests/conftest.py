"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this checkout.

    ``src`` goes first on the child's ``PYTHONPATH``, so a child started
    by a test runs the same sources as the test, installed or not.
    """
    parts = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, parts)))
