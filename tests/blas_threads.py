"""How many threads numpy's OpenBLAS runs, asked from the library itself.

    python tests/blas_threads.py

runs the `hiercl` entry point once, with `--version`, and prints the count
after it: the tests run it in a fresh process, whose OpenBLAS starts with
its own default.
"""
import ctypes
import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np


def openblas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy ships; None without one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: the same library
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


if __name__ == "__main__":
    from hiercl.cli import main

    with redirect_stdout(io.StringIO()):
        try:
            main(["--version"])
        except SystemExit:
            pass
    print(openblas_threads())
