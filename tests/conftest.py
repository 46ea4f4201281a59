"""Shared fixtures: one small known table and a clean environment; and
one Hypothesis profile for every property test."""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import support
from tablehelm.table_core import Sample, Table

# Every property test draws the same examples on every run, and none keeps
# an example database. This loads before the test modules, so a test's own
# `@settings` keeps these two fields.
settings.register_profile("fixed-seed", derandomize=True, database=None)
settings.load_profile("fixed-seed")

# Hypothesis still caches what it reads from source files and the Unicode
# tables, by default under `.hypothesis/` in the working directory, from the
# test modules' import on. A temporary directory for the run keeps that out
# of the checkout.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture(autouse=True)
def _clean_helm_env(monkeypatch):
    # Config lookups read HELM_* variables; tests must not inherit any.
    for key in list(os.environ):
        if key.startswith("HELM_"):
            monkeypatch.delenv(key)


@pytest.fixture
def champions_table() -> Table:
    return support.champions_table()


@pytest.fixture
def champions_sample() -> Sample:
    return support.champions_sample()
