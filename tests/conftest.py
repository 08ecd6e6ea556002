"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """int()'s default limit of 4,300 digits, set for one test whatever the
    interpreter was started with; skipped where int() has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("int() has no digit limit on this interpreter")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
