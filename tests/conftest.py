import pytest

from baercode.params import CodeParams, validate
from baercode import repair1, repair2


@pytest.fixture(scope="session")
def ex3_code():
    """Small adaptive cluster with one adversary: n=6, k=3, D={4,5}, b=1, alpha=6."""
    return validate(CodeParams(n=6, k=3, d_set=(4, 5), b=1, alpha=6))


@pytest.fixture(scope="session")
def ex1_code():
    """Adversary-free cluster: n=5, k=2, D={3,4}, b=0, alpha=12."""
    return validate(CodeParams(n=5, k=2, d_set=(3, 4), b=0, alpha=12))


@pytest.fixture(scope="session")
def a12_code():
    """Small-field iterative-repair cluster: n=6, k=3, D={4,5}, b=1, alpha=12."""
    return validate(CodeParams(n=6, k=3, d_set=(4, 5), b=1, alpha=12))


@pytest.fixture(scope="session")
def ex3_search(ex3_code):
    """Scheme 1's prime search at ex3 scale: certified field, report, rejected primes."""
    return repair1.find_field(ex3_code)


@pytest.fixture(scope="session")
def ex3_cfg(ex3_code, ex3_search):
    """Omega config of ex3 over its certified field."""
    return repair1.omega_build(ex3_code, ex3_search.field)


@pytest.fixture(scope="session")
def a12_field2(a12_code):
    """First prime whose per-group systems all solve for scheme 2 at alpha=12."""
    fld, report, rejected = repair2.find_field_scheme2(a12_code)
    assert report.ok
    return fld
