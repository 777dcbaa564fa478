"""Shared fixtures."""
import os

import pytest

import hopflab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopflab.__file__)))


@pytest.fixture
def child_env():
    """os.environ for a child interpreter, with the hopflab under test first
    on its path, so subprocess tests need no install and no PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env
