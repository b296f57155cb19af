import json
from pathlib import Path

import pytest

from geozeta import fixtures


@pytest.fixture(scope="session")
def small_spec():
    return fixtures.load_spectrum("small")


@pytest.fixture(scope="session")
def medium_spec():
    return fixtures.load_spectrum("medium")


@pytest.fixture(scope="session")
def invariants():
    return fixtures.load_invariants()


@pytest.fixture(scope="session")
def invariants_files(tmp_path_factory):
    # the shipped invariants, and a volume-8 set with eta for weights 1-20,
    # whose reflected Selberg values pass a double at larger n and m
    big = tmp_path_factory.mktemp("inv") / "volume8.json"
    big.write_text(json.dumps({"label": "volume-8", "volume": 8.0, "cs": 0.1,
                               "eta": {str(k): 0.1 for k in range(1, 21)}}))
    return (str(Path(fixtures.__file__).parent / "invariants_synthetic.json"), str(big))
