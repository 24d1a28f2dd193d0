from contextlib import contextmanager

import pytest

from qball import kernels, polmat

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
def fresh_det_star_scale():
    """Clears the cached scale of star(det_q) before and after the test.  A
    test that patches ``gl_star_gen`` or ``GLnElement.star`` takes it, so
    that it neither reads a scale cached from the true star nor leaves one
    computed from its patch to later tests."""
    polmat._det_star_scale.cache_clear()
    yield
    polmat._det_star_scale.cache_clear()
