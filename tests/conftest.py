import pytest

from sievekit.arith import primes_up_to


@pytest.fixture(scope="session")
def table():
    """The primes below 10^5 + 2, shared by every test module that does not define its own table."""
    return primes_up_to(10**5 + 2)
