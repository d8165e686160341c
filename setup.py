"""Legacy setup shim.

The environment used for the reproduction has no ``wheel`` package, so PEP 660
editable installs (which build a wheel) fail; ``pip install -e . --no-use-pep517
--no-build-isolation`` falls back to ``setup.py develop`` and works offline.
This file is the package's only build metadata: the ``repro`` package under
``src/``, for Python 3.11 or later (the splitter's structural scan uses
possessive quantifiers, new in 3.11's ``re``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
