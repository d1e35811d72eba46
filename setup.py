"""Legacy setup shim; all real metadata lives in pyproject.toml.

Installing is not needed to run the code: ``export PYTHONPATH=src`` from
the repository root, as the test command in ROADMAP.md does. An install
(``pip install -e .``) needs ``setuptools>=64`` and ``wheel`` available
to pip, which an offline machine may not have.
"""

from setuptools import setup

setup()
