"""Package metadata for the ``repro`` distribution.

``pip install -e .`` installs it in editable mode; where the ``wheel``
package is missing (an offline machine), ``pip install -e .
--no-use-pep517`` takes the legacy ``setup.py develop`` route instead.
The version is read from ``src/repro/__init__.py`` without importing
the package."""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Dynamic density-based clustering (Gan & Tao, SIGMOD 2017)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
