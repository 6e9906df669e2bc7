"""Legacy setup shim: enables `pip install -e .` on environments whose
setuptools predates PEP 660 editable wheels (metadata lives in pyproject.toml).
"""

from setuptools import setup

setup()
