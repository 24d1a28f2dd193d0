from contextlib import contextmanager

import pytest

from qball import boundary, kernels, polmat

# the per-process kernel caches, built from the rewrite and action tables
KERNEL_CACHES = (kernels.build_L, kernels.build_Lbar, kernels.inverse_kernels,
                 kernels._raw_poisson, kernels._normalized_poisson)


@pytest.fixture
def no_new_kernels():
    """A context manager inside which no kernel cache gains an entry.  A
    test that corrupts a table runs its checks inside it, so that no cached
    L, Lbar, inverse or Poisson kernel is built from the corrupted table and
    outlives the test; kernels it needs are built before it corrupts."""
    @contextmanager
    def guard():
        before = [f.cache_info().currsize for f in KERNEL_CACHES]
        yield
        assert [f.cache_info().currsize for f in KERNEL_CACHES] == before
    return guard


@pytest.fixture
def fresh_kernels():
    """Clears the kernel caches before the test, for a test that counts the
    builds a run makes: an L, Lbar or Poisson kernel cached by an earlier
    test in the same process would hide them."""
    for f in KERNEL_CACHES:
        f.cache_clear()


@pytest.fixture
def fresh_reducer():
    """Clears the cached Shilov reduction before and after the test.  A
    test that patches ``boundary.unitarity_relations`` takes it, so that the
    reduction is built from its patch and does not outlive it."""
    boundary._reducer.cache_clear()
    yield
    boundary._reducer.cache_clear()


@pytest.fixture
def fresh_det_star_scale():
    """Clears the cached scale of star(det_q) before and after the test.  A
    test that patches ``gl_star_gen`` or ``GLnElement.star`` takes it, so
    that it neither reads a scale cached from the true star nor leaves one
    computed from its patch to later tests."""
    polmat._det_star_scale.cache_clear()
    yield
    polmat._det_star_scale.cache_clear()
