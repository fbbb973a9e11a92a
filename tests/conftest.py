"""Shared fixtures."""

import importlib.util
from pathlib import Path

import pytest

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"


@pytest.fixture(scope="session")
def reference():
    """`perfbench/reference.py`, the second arithmetic: exact integer tables
    and 50-digit mpmath values computed without importing equifuse."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
