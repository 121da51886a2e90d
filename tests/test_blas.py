import ctypes.util

from randadj import blas


def test_pin_reports_unpinned_when_it_cannot_act(monkeypatch):
    libm = ctypes.util.find_library("m")
    monkeypatch.setattr(blas, "_loaded_openblas", lambda: [libm, "/no/such/libopenblas.so"])
    assert blas.pin_openblas() == [
        {"path": libm, "config": None, "threads": None, "pinned": False},
        {"path": "/no/such/libopenblas.so", "config": None, "threads": None, "pinned": False},
    ]

    def unreadable():
        raise PermissionError("/proc/self/maps")

    monkeypatch.setattr(blas, "_loaded_openblas", unreadable)
    assert blas.pin_openblas() == [
        {"path": None, "config": None, "threads": None, "pinned": False}]
