"""Shared fixtures: the worked-example matrices and prebuilt instances.

Session scope keeps the expensive objects (codes, recovery systems, region
instances and hypergraphs) shared across the whole run.
"""

from __future__ import annotations

import pytest

from srrham import codes, recovery, srr
from srrham import hypergraph as hg

# The counting-ordered [7,4,3] matrices used throughout the worked examples.
CLASSIC_H_32 = [
    [0, 0, 0, 1, 1, 1, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [1, 0, 1, 0, 1, 0, 1],
]
CLASSIC_G_32 = [
    [1, 1, 1, 0, 0, 0, 0],
    [1, 0, 0, 1, 1, 0, 0],
    [0, 1, 0, 1, 0, 1, 0],
    [1, 1, 0, 1, 0, 0, 1],
]

# A [7,4,3] generator with no full systematic column set (symbols a, b coded
# everywhere); columns 3, 4, 7 are its odd-weight columns.
NONSYS_G = [
    [1, 1, 0, 0, 1, 1, 0],
    [0, 0, 1, 0, 1, 1, 0],
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 1, 1, 0, 0],
]

# A permuted-systematic [7,4,3] generator whose first symbol is also
# recoverable from the three coded nodes alone.
GPRIME = [
    [1, 1, 1, 1, 0, 0, 0],
    [1, 0, 1, 0, 1, 0, 0],
    [0, 1, 1, 0, 0, 1, 0],
    [1, 1, 0, 0, 0, 0, 1],
]

# Recovery systems of the classic [7,4,3] code, exactly as enumerated by hand.
CLASSIC_RECOVERY = {
    1: {(3,), (1, 5, 7), (2, 6, 7), (2, 4, 5), (1, 4, 6)},
    2: {(5,), (1, 3, 7), (4, 6, 7), (2, 3, 4), (1, 2, 6)},
    3: {(6,), (1, 2, 5), (2, 3, 7), (4, 5, 7), (1, 3, 4)},
    4: {(7,), (1, 3, 5), (2, 3, 6), (4, 5, 6), (1, 2, 4)},
}

NONSYS_RECOVERY = {
    1: {(1, 7), (2, 4), (3, 5), (1, 4, 5, 6), (2, 5, 6, 7), (3, 4, 6, 7), (1, 2, 3, 6)},
    2: {(3, 4, 7), (1, 6, 7), (3, 5, 6), (2, 4, 6), (2, 5, 7), (1, 4, 5), (1, 2, 3)},
    3: {(7,), (1, 2, 4), (1, 3, 5), (4, 5, 6), (2, 3, 6)},
    4: {(4,), (1, 2, 7), (2, 3, 5), (5, 6, 7), (1, 3, 6)},
}


@pytest.fixture(scope="session")
def classic32():
    return codes.classic_hamming(3, 2)


@pytest.fixture(scope="session")
def sys32():
    return codes.systematic_hamming(3, 2)


@pytest.fixture(scope="session")
def sys42():
    return codes.systematic_hamming(4, 2)


@pytest.fixture(scope="session")
def sys52():
    return codes.systematic_hamming(5, 2)


@pytest.fixture(scope="session")
def sys33():
    return codes.systematic_hamming(3, 3)


@pytest.fixture(scope="session")
def nonsys():
    return codes.import_generator(NONSYS_G, 2)


@pytest.fixture(scope="session")
def gprime():
    return codes.import_generator(GPRIME, 2)


@pytest.fixture(scope="session")
def classic32_instance(classic32):
    return srr.SrrInstance.for_code(classic32)


@pytest.fixture(scope="session")
def sys32_instance(sys32):
    return srr.SrrInstance.for_code(sys32)


@pytest.fixture(scope="session")
def sys42_instance(sys42):
    return srr.SrrInstance.for_code(sys42)


@pytest.fixture(scope="session")
def sys52_instance(sys52):
    return srr.SrrInstance.for_code(sys52)


@pytest.fixture(scope="session")
def sys33_instance(sys33):
    return srr.SrrInstance.for_code(sys33)


@pytest.fixture(scope="session")
def nonsys_instance(nonsys):
    return srr.SrrInstance.for_code(nonsys)


@pytest.fixture(scope="session")
def classic32_graph(classic32_instance):
    return hg.from_recovery_system(classic32_instance.system)


@pytest.fixture(scope="session")
def sys42_graph(sys42_instance):
    return hg.from_recovery_system(sys42_instance.system)


@pytest.fixture(scope="session")
def sys52_graph(sys52_instance):
    return hg.from_recovery_system(sys52_instance.system)


@pytest.fixture(scope="session")
def nonsys_graph(nonsys_instance):
    return hg.from_recovery_system(nonsys_instance.system)
