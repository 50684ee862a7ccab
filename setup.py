"""Package declaration for the ``repro`` library under ``src/``.

``pip install -e .`` makes ``import repro`` work from anywhere; the
tests and tools also run without installing, with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
