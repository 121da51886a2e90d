"""Pin every loaded OpenBLAS library to one thread.

Threaded BLAS changes the summation order of large products, so results
would depend on the core count, and each tiny per-arm factorization pays
thread hand-off costs.  numpy and scipy each bundle their own OpenBLAS;
both are found in /proc/self/maps and set through their exported
set_num_threads symbol.  A forked worker inherits the setting, and a
spawned one re-imports the package and pins itself.
"""

from __future__ import annotations

import ctypes

#: (prefix, suffix) of the OpenBLAS symbol names: scipy-openblas 64-bit and
#: 32-bit interface builds, then plain OpenBLAS
_SYMBOLS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
            ("openblas_", "64_"), ("openblas_", ""))


def _loaded_openblas() -> list[str]:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})


def pin_openblas() -> list[dict]:
    """Set each loaded OpenBLAS to one thread and read the count back.

    Returns one record per library: its path, its get_config string, the
    thread count read back after the pin, and whether the pin took.  A
    library without the symbols, or an unreadable /proc/self/maps, gives
    pinned False; the caller goes on either way.
    """
    try:
        paths = _loaded_openblas()
    except OSError:
        return [{"path": None, "config": None, "threads": None, "pinned": False}]
    out = []
    for path in paths:
        rec = {"path": path, "config": None, "threads": None, "pinned": False}
        out.append(rec)
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            setter, getter, config = (getattr(lib, f"{prefix}{name}{suffix}", None) for name in
                                      ("set_num_threads", "get_num_threads", "get_config"))
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter(1)
            rec["threads"] = getter()
            rec["pinned"] = rec["threads"] == 1
            if config is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                rec["config"] = config().decode()
            break
    return out
