"""Tests for the documentation drift guard (docs/check_docs.py).

``docs/reproducing.md`` must name every performance floor of
``benchmarks/check_regression.py`` by its JSON section key; the guard
reports the keys it misses.
"""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "docs" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproducing_names_every_floor(check_docs):
    assert check_docs.undocumented_floors() == []


def test_missing_floor_key_is_reported(check_docs, tmp_path, monkeypatch):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "docs").mkdir()
    shutil.copy(
        REPO_ROOT / "benchmarks" / "check_regression.py",
        tmp_path / "benchmarks" / "check_regression.py",
    )
    text = (REPO_ROOT / "docs" / "reproducing.md").read_text()
    assert "`remote_skewed`" in text
    (tmp_path / "docs" / "reproducing.md").write_text(
        text.replace("`remote_skewed`", "remote skewed")
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert check_docs.undocumented_floors() == ["remote_skewed"]
