"""Setuptools packaging for the ``repro`` library under ``src/``.

The only packaging file in the repository (there is no
``pyproject.toml``), written for old setuptools/pip stacks without the
``wheel`` package (offline environments): ``python setup.py develop``
or ``pip install -e .``.  The library itself is stdlib-only.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: importing ``repro`` would need ``src`` on the path.
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE)

setup(
    name="repro",
    version=_VERSION.group(1),
    description="Reproduction of 'Indexing Data-oriented Overlay Networks' (VLDB 2005)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
