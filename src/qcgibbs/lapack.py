"""Two LAPACK eigenvalue drivers, and the BLAS thread count, through the
OpenBLAS that numpy has loaded.

The oscillator basis needs the eigenvalues of a symmetric band matrix
(DSBEV) and finite differences need selected eigenvalues of a symmetric
tridiagonal one (DSTEBZ, bisection); see Anderson et al., LAPACK Users'
Guide, 3rd ed. (SIAM 1999). numpy.linalg offers neither, and importing
scipy.linalg for them costs more than the rest of a command's start-up.
numpy's wheels bundle an OpenBLAS that exports both through LAPACKE, so this
module binds them with ctypes from that library, in the directory beside
numpy where the wheel keeps it (numpy.libs, or numpy/.dylibs on macOS). The
library is already mapped into the process, so no second BLAS runtime
starts. The lookup happens at the first call, never at import. The integer
width is read from the symbol name: a `64_` suffix marks 64-bit LAPACK
integers.

The same library's thread-count functions let a block of code run at a set
number of BLAS threads (blas_threads): OpenBLAS wakes its threads for
matrices of a few hundred rows, where one thread is as fast and the others
spin on after the call. The count starts at one: the package imports numpy
with OPENBLAS_NUM_THREADS=1 unless the caller has named a count
(OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS) or loaded numpy
first. The one solve that wants more, a sine basis past
spectrum.SINE_BASIS_SERIAL_STATES states, raises it to every usable CPU for
its Ritz eigensolve, and again for its bars' eigensolve, which runs on the
first read of the bars (only verify reads them); OpenBLAS starts the extra
threads at the first raise. Independent solves go
to the spare cores instead (map_solves): ctypes releases the GIL for the
length of each call.

Where numpy bundles no such library (numpy built against MKL, Accelerate or
a system LAPACK), both routines are called through scipy.linalg.lapack
instead, imported at that first call, and the thread count is left to that
library.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import AccuracyError
from .util import thread_map

_COL_MAJOR = 102  # LAPACK_COL_MAJOR in lapacke.h

# OpenBLAS's thread count is one setting for the whole process, so blocks run
# under blas_threads in different threads take turns
_BLAS_COUNT_LOCK = threading.RLock()


class _Lapacke(NamedTuple):
    dsbev: Callable
    dstebz: Callable
    int_type: type
    # openblas_{set,get}_num_threads, both None where the library lacks them
    set_threads: Callable | None
    get_threads: Callable | None


def _openblas_paths() -> list[str]:
    """The OpenBLAS libraries of numpy's wheel, in the directories it uses."""
    package = os.path.dirname(np.__file__)
    paths = []
    for folder in (os.path.join(os.path.dirname(package), "numpy.libs"),
                   os.path.join(package, ".dylibs")):
        if os.path.isdir(folder):
            paths.extend(os.path.join(folder, name) for name in sorted(os.listdir(folder))
                         if "openblas" in name)
    return paths


def _bind(lib: ctypes.CDLL, name: str, argtypes: list, restype) -> Callable:
    fn = getattr(lib, name)
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


@functools.cache
def _lapacke() -> _Lapacke | None:
    """LAPACKE_dsbev and LAPACKE_dstebz, with the thread-count functions
    beside them, from numpy's OpenBLAS, or None when numpy bundles no library
    that exports both drivers."""
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                if not (hasattr(lib, f"{prefix}LAPACKE_dsbev{suffix}")
                        and hasattr(lib, f"{prefix}LAPACKE_dstebz{suffix}")):
                    continue
                lint = ctypes.c_int64 if suffix else ctypes.c_int32
                # arrays go as raw addresses, since the callers below build
                # every buffer as a C-contiguous float64 (or lint) array of
                # checked size; ndpointer would add an import of
                # numpy.ctypeslib, about 1 ms of the first solve
                char, dbl, ptr = ctypes.c_char, ctypes.c_double, ctypes.c_void_p
                dsbev = _bind(lib, f"{prefix}LAPACKE_dsbev{suffix}", [
                    ctypes.c_int, char, char, lint, lint, ptr, lint, ptr, ptr, lint,
                ], lint)
                dstebz = _bind(lib, f"{prefix}LAPACKE_dstebz{suffix}", [
                    char, char, lint, dbl, dbl, lint, lint, dbl, ptr, ptr,
                    ctypes.POINTER(lint), ctypes.POINTER(lint), ptr, ptr, ptr,
                ], lint)
                set_name = f"{prefix}openblas_set_num_threads{suffix}"
                get_name = f"{prefix}openblas_get_num_threads{suffix}"
                threads = (None, None)
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    threads = (_bind(lib, set_name, [ctypes.c_int], None),
                               _bind(lib, get_name, [], ctypes.c_int))
                return _Lapacke(dsbev, dstebz, lint, *threads)
    return None


@contextlib.contextmanager
def blas_threads(count: int) -> Iterator[None]:
    """Run the block with OpenBLAS at `count` threads, then restore the prior
    count. The count is process-wide, so such blocks in different threads
    run one at a time. Where numpy bundles no OpenBLAS this does nothing."""
    lapacke = _lapacke()
    if lapacke is None or lapacke.set_threads is None:
        yield
        return
    with _BLAS_COUNT_LOCK:
        prior = lapacke.get_threads()
        lapacke.set_threads(count)
        try:
            yield
        finally:
            lapacke.set_threads(prior)


def map_solves(solve: Callable, jobs: list) -> list:
    """[solve(job) for job in jobs] on min(len(jobs), usable CPUs) threads
    (util.thread_map), where each job is one independent call into this
    module. The library is looked up first, in the calling thread, so that
    no two workers bind it."""
    _lapacke()
    return thread_map(solve, jobs)


def _check_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"{routine}: argument {-info} had an illegal value")
    if info > 0:
        raise AccuracyError(f"{routine} did not converge (LAPACK info={info})")


def _finite(routine: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise AccuracyError(f"{routine}: the matrix holds a non-finite entry")


def banded_eigenvalues(ab: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of the symmetric band matrix whose lower
    band storage is `ab`: ab[d, j] = A[j + d, j], shape (bandwidth + 1, n)."""
    ab = np.asarray(ab, dtype=np.float64)
    if ab.ndim != 2 or ab.shape[0] < 1 or ab.shape[1] < 1:
        raise ValueError("the band must be a non-empty 2-D array")
    _finite("dsbev", ab)
    kd, n = ab.shape[0] - 1, ab.shape[1]
    # a C-contiguous n x (kd + 1) copy is the column-major band LAPACK reads,
    # and DSBEV may overwrite it
    band = np.array(ab.T, order="C")
    lapacke = _lapacke()
    if lapacke is None:
        from scipy.linalg.lapack import dsbev

        w, _, info = dsbev(band.T, compute_v=0, lower=1)
        _check_info("dsbev", info)
        return w
    w = np.empty(n)
    info = lapacke.dsbev(_COL_MAJOR, b"N", b"L", n, kd, band.ctypes.data, kd + 1,
                         w.ctypes.data, None, 1)
    _check_info("dsbev", info)
    return w


def tridiagonal_lowest(diag: np.ndarray, off: np.ndarray, count: int) -> np.ndarray:
    """The `count` lowest eigenvalues, ascending, of the symmetric tridiagonal
    matrix with diagonal `diag` and off-diagonal `off`, by bisection with
    abstol 0, which LAPACK reads as eps times the matrix's 1-norm."""
    diag = np.array(diag, dtype=np.float64, order="C")
    off = np.array(off, dtype=np.float64, order="C")
    n = diag.size
    if diag.ndim != 1 or off.ndim != 1 or n < 1 or off.size != n - 1:
        raise ValueError("need a non-empty diagonal and an off-diagonal one shorter")
    if not 1 <= count <= n:
        raise ValueError("need 1 <= count <= the matrix order")
    _finite("dstebz", diag, off)
    lapacke = _lapacke()
    if lapacke is None:
        from scipy.linalg.lapack import dstebz

        m, w, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, 1, count, 0.0, "E")
        _check_info("dstebz", info)
        return w[:m]
    lint = lapacke.int_type
    m, nsplit = lint(0), lint(0)
    w = np.empty(n)
    iblock = np.empty(n, dtype=np.dtype(lint))
    isplit = np.empty(n, dtype=np.dtype(lint))
    info = lapacke.dstebz(b"I", b"E", n, 0.0, 0.0, 1, count, 0.0, diag.ctypes.data,
                          off.ctypes.data, ctypes.byref(m), ctypes.byref(nsplit),
                          w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data)
    _check_info("dstebz", info)
    return w[: m.value]
