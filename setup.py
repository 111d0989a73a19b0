"""Setuptools entry point for the LifeRaft reproduction.

A classic ``setup.py`` (rather than a PEP 517 ``pyproject.toml`` build) is
used so that ``pip install -e .`` works in fully offline environments:
PEP 517 editable installs require pip to download build backends, which is
not possible without network access.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of LifeRaft: data-driven, batch processing for the "
        "exploration of scientific databases (CIDR 2009)"
    ),
    author="LifeRaft Reproduction Authors",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["liferaft = repro.cli:main"]},
)
