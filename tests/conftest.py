import pytest

from wdyn import build_prime_table


@pytest.fixture(scope="session")
def table_x300():
    """Covers the oracles up to x = 300, which read P over [0, 4x] = [0, 1200];
    parent searches and censuses read the table only up to 2x."""
    return build_prime_table(1201)


@pytest.fixture(scope="session")
def table_10k():
    return build_prime_table(10_000)


@pytest.fixture(scope="session")
def table_x10k():
    """Covers the oracles up to x = 10^4 (4x + 1), and census grids up to 2 * 10^4 (2x)."""
    return build_prime_table(40_001)


@pytest.fixture(scope="session")
def table_200k():
    """Covers variance sums up to x = 10^5 and orbits of n <= 10^5."""
    return build_prime_table(200_000)


@pytest.fixture(scope="session")
def table_1m():
    return build_prime_table(1_000_000)
