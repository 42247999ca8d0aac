"""Setuptools entry point of the ``repro`` package.

All metadata lives here (there is no ``pyproject.toml``).  The package
sources sit under ``src/``; the version is read from ``repro.__version__``
without importing the package, so building needs no NumPy.  NumPy is the
one runtime dependency.  ``pip install -e .`` falls back to the legacy
``setup.py develop`` path on setuptools without PEP 660 support.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"),
                     re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Pure-NumPy reproduction of Duet, a sampling-free learned "
                "cardinality estimator, with an online serving layer",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
