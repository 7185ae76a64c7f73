"""Run the test suite as on a PyYAML built without libyaml.

Hides ``yaml.CSafeLoader`` and clears ``yaml.__with_libyaml__`` before pytest
imports cpsim, so ``config.YAML_LOADER`` falls back to the pure-Python
``SafeLoader`` for every test, the goldens included. Arguments go to pytest:

    PYTHONPATH=src python tests/without_libyaml.py -q
"""

import sys

import pytest
import yaml

if __name__ == "__main__":
    if hasattr(yaml, "CSafeLoader"):
        del yaml.CSafeLoader
    yaml.__with_libyaml__ = False
    sys.exit(pytest.main(sys.argv[1:]))
