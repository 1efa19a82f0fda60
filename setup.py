"""Package metadata — all of it; there is no pyproject.toml.

A plain setup.py keeps `pip install -e .` and `python setup.py develop`
working offline: the environment here ships setuptools 65.5 without
`wheel`, where PEP 660 editable installs fail with `invalid command
'bdist_wheel'`. The version is read from `src/repro/__init__.py` without
importing the package (its dependencies need not be installed yet).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1),
    description="QArchSearch reproduction: scalable quantum architecture search",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    # the floors of requirements-ci.txt; everything else there is test tooling
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
