"""The ``setup.py`` declaration: ``pip install -e .`` must ship the
``repro`` distribution with every package under ``src/``."""

import subprocess
import sys
from pathlib import Path

import pytest
from setuptools import find_packages

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src"


def source_packages():
    """Dotted names of every ``src/`` directory that holds modules."""
    return sorted(
        ".".join(d.relative_to(SRC).parts)
        for d in (SRC / "repro").rglob("*")
        if d.is_dir() and d.name != "__pycache__" and any(d.glob("*.py"))
    ) + ["repro"]


def test_setup_declares_the_repro_distribution():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=REPO,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip().splitlines()[-1] == "repro"


def test_no_modules_outside_the_package():
    """``packages=find_packages("src")`` ships packages only; a loose
    module at the top of ``src/`` would be left out of an install."""
    assert not list(SRC.glob("*.py"))


@pytest.mark.parametrize("package", source_packages())
def test_package_is_shipped(package):
    """A directory of modules without ``__init__.py`` is silently
    skipped by ``find_packages``."""
    assert package in find_packages(str(SRC))
