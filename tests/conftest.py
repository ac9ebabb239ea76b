import pytest

from gefdesign import FilterConstants


@pytest.fixture
def theta_sharp6():
    """The sharp reference case: a_p = 0.05, b_p = 1, b_u = 6."""
    return FilterConstants(0.05, 1.0, 6.0)


@pytest.fixture
def theta_wide7():
    """The less-sharp comparison case: a_p = 0.1, b_p = 1, b_u = 7."""
    return FilterConstants(0.1, 1.0, 7.0)
