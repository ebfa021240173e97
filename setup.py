"""Package metadata (the whole of it: there is no ``pyproject.toml``).

Kept in ``setup.py`` so the package also installs in environments without
the ``wheel`` package (the PEP 660 editable-install path needs
``bdist_wheel``, the legacy ``setup.py develop`` path does not).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: importing ``repro`` needs numpy, which an installer
# has not provided yet when it asks for the version.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-datamaestro",
    version=VERSION,
    description="Cycle-level reproduction of the DataMaestro data streaming engine",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
