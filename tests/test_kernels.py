"""The kernel module reports the implementation it runs."""

from svote import kernels


def test_active_backend_is_known():
    assert kernels.active_backend() in ("numba", "numpy")
