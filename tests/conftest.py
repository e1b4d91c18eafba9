import sys

import pytest
from hypothesis import settings

# Property tests replay the same examples on every run and never fail on time:
# a slow example on a loaded machine is not a defect.
settings.register_profile("contikit", derandomize=True, deadline=None)
settings.load_profile("contikit")


@pytest.fixture(autouse=True)
def _int_str_digit_limit_is_left_as_found():
    """Fail a test that leaves the interpreter's int -> str digit limit changed, so that
    every test runs under the limit Python starts with, whatever ran before it."""
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get_limit()
    yield
    if (after := get_limit()) != before:
        sys.set_int_max_str_digits(before)
        pytest.fail(f"the test left the int -> str digit limit at {after}, not {before}")
