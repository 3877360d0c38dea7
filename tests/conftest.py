from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lattmark import extract_rotations, RealizedBase
from lattmark.fixtures import (
    diamond_lattice,
    four_element_antimatroid,
    hexagon_lattice,
    pentagon_lattice,
    seven_pair_market,
    seven_pair_rotations,
    seven_pair_stable_matchings,
)


@pytest.fixture(scope="session")
def hexagon():
    return hexagon_lattice()


@pytest.fixture(scope="session")
def pentagon():
    return pentagon_lattice()


@pytest.fixture(scope="session")
def diamond():
    return diamond_lattice()


@pytest.fixture(scope="session")
def seven_market():
    return seven_pair_market()


@pytest.fixture(scope="session")
def seven_stables():
    return seven_pair_stable_matchings()


@pytest.fixture(scope="session")
def seven_rotation_poset(seven_market):
    return extract_rotations(seven_market)


@pytest.fixture(scope="session")
def rot_ids(seven_rotation_poset):
    """Map the documented rotation names rot1..rot4 onto extracted ids."""
    names = {}
    for rid, rot in seven_rotation_poset.rotations.items():
        for key, (plus, minus) in seven_pair_rotations().items():
            if (rot.plus, rot.minus) == (plus, minus):
                names[key] = rid
    assert len(names) == 4
    return names


@pytest.fixture(scope="session")
def seven_base(seven_market, seven_rotation_poset):
    return RealizedBase(seven_market, seven_rotation_poset)


@pytest.fixture(scope="session")
def quad_antimatroid():
    return four_element_antimatroid()
