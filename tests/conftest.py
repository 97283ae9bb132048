import os
import sys

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, os.path.dirname(__file__))

from primediff.tables import build_tables


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    # Hypothesis writes a cache of source constants under its home directory
    # while collecting, even with database=None; keep it in pytest's
    # temporary directory instead of the checkout
    set_hypothesis_home_dir(config._tmp_path_factory.getbasetemp() / "hypothesis")


@pytest.fixture(scope="session")
def tables_small():
    return build_tables(20_000)


@pytest.fixture(scope="session")
def tables_million():
    return build_tables(1_000_002)
