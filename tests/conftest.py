import warnings

import pytest
from hypothesis import settings
from hypothesis import strategies as st

# On a failing example the hypothesis plugin imports hypothesis.extra._patching,
# whose libcst import trips a DeprecationWarning inside mypy_extensions; under
# `-W error` the report then ends in INTERNALERROR instead of the falsifying
# example.  Import it once here with only that import's warnings ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# CI runs the algebra properties with `--hypothesis-profile=ci`: a fixed
# example sequence, no per-example deadline on a slow runner, more examples.
settings.register_profile("ci", derandomize=True, deadline=None, max_examples=400)

from clusterforge import (LaurentPolynomial, build_family, build_gale_robinson,
                          FamilySpec, make_quiver)


def poly(nvars, terms):
    return LaurentPolynomial(nvars, terms)


def truncate(p, bound):
    """Reference truncation: the terms of p within bound componentwise."""
    return LaurentPolynomial(p.nvars, {e: c for e, c in p.terms.items()
                                       if all(x <= b for x, b in zip(e, bound))})


@pytest.fixture(scope="session")
def k2():
    return make_quiver([[0, 2], [-2, 0]])


@pytest.fixture(scope="session")
def k3():
    return make_quiver([[0, 3], [-3, 0]])


@pytest.fixture(scope="session")
def a2():
    return make_quiver([[0, 1], [-1, 0]])


@pytest.fixture(scope="session")
def a3_path():
    return make_quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])


@pytest.fixture(scope="session")
def a12():
    return build_family(FamilySpec.of("a1r", r=2))


@pytest.fixture(scope="session")
def dp1():
    return build_gale_robinson(4, 2, 1)


@pytest.fixture(scope="session")
def g723():
    return build_gale_robinson(7, 2, 3)


@pytest.fixture(scope="session")
def b21():
    # smallest honestly skew-symmetrizable (non-skew-symmetric) quiver
    return make_quiver([[0, 1], [-2, 0]])


def _sign(x):
    return (x > 0) - (x < 0)


def reference_mutate_b(b, k):
    """Exchange-matrix mutation at 0-based vertex k, entry by entry as defined."""
    n = len(b)
    return tuple(
        tuple(-b[i][j] if k in (i, j) else b[i][j] + _sign(b[i][k]) * max(b[i][k] * b[k][j], 0)
              for j in range(n))
        for i in range(n))


def reference_mutate_c(c, b, k):
    """Frozen-block mutation at 0-based vertex k, entry by entry as defined."""
    n = len(b)
    return tuple(
        tuple(-c[i][j] if j == k else c[i][j] + _sign(c[i][k]) * max(-c[i][k] * b[j][k], 0)
              for j in range(n))
        for i in range(n))


def random_skew_symmetric(rng, v, max_entry=2):
    b = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            x = rng.randint(-max_entry, max_entry)
            b[i][j] = x
            b[j][i] = -x
    return make_quiver(b)


@st.composite
def scaled_skew_symmetric(draw, max_v, max_s, max_d):
    """(B, d) with B = S*diag(d) for a skew-symmetric S, |S_ij| <= max_s and
    1 <= d_i <= max_d; diag(d)*B = diag(d)*S*diag(d) is skew-symmetric."""
    v = draw(st.integers(1, max_v))
    d = draw(st.lists(st.integers(1, max_d), min_size=v, max_size=v))
    s = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            s[i][j] = draw(st.integers(-max_s, max_s))
            s[j][i] = -s[i][j]
    return [[s[i][j] * d[j] for j in range(v)] for i in range(v)], d


def random_sequence(rng, v, length):
    return tuple(rng.randint(1, v) for _ in range(length))
