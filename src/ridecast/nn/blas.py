"""Run two numpy computations at once on two threads, with OpenBLAS at one thread.

numpy wheels bundle OpenBLAS, whose own thread pool would otherwise split
each matrix product of both computations over the same cores.  ``in_parallel``
opens that library through ``ctypes``, holds its thread count at 1 while the
two computations run and restores the count afterwards.  A module lock
serialises the holds, so concurrent callers never see each other's setting.
The first computation runs on one daemon worker thread, started by the first
hold and kept for the life of the process: a new thread per hold made a
500-sequence forecast 0.5-0.6 ms slower (8.4 against 7.9 ms, medians of 300
interleaved calls), three times what starting and joining a thread costs
alone.  A fork waits for any hold to end, and the child starts a worker of
its own at its first hold, so it starts with the lock free and the count
restored.

Without a bundled OpenBLAS (another BLAS, or a numpy built from source) the
two computations run one after the other on the calling thread.  Either way
each computation returns the bytes it returns alone: OpenBLAS divides a
product's output among its threads but sums each element the same way at any
thread count (the forecaster's tests check this on numpy's OpenBLAS on
x86-64).
"""
from __future__ import annotations

import ctypes
import functools
import glob
import os
import queue
import threading
from typing import Callable, Optional, TypeVar

import numpy as np

A = TypeVar("A")
B = TypeVar("B")

# (getter, setter) symbol pairs, the 64-bit-integer builds of current wheels first
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _Worker:
    """A daemon thread running one (computation, reply queue) job at a time."""

    def __init__(self) -> None:
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._loop, name="ridecast-blas-worker", daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        while True:
            self._run(*self.jobs.get())

    @staticmethod
    def _run(fn: Callable, reply: queue.SimpleQueue) -> None:
        # a function of its own, so the job's references die with the job
        try:
            reply.put((fn(), None))
        except BaseException as e:  # handed to the calling thread, which raises it
            reply.put((None, e))


_lock = threading.Lock()
_worker: Optional[_Worker] = None   # guarded by _lock


def _after_fork_in_child() -> None:
    global _worker
    _worker = None   # the worker thread did not survive the fork
    _lock.release()


os.register_at_fork(before=_lock.acquire, after_in_parent=_lock.release, after_in_child=_after_fork_in_child)


@functools.cache
def openblas_threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def in_parallel(first: Callable[[], A], second: Callable[[], B]) -> tuple[A, B]:
    """(first(), second()): ``first`` on the worker thread and ``second`` on
    the calling thread at once, with OpenBLAS held at one thread, or both in
    order on the calling thread when no bundled OpenBLAS is found.

    ``first`` has finished before this returns or raises.  An exception from
    either computation propagates; when both raise, the calling thread's does.
    """
    global _worker
    blas = openblas_threads()
    if blas is None:
        return first(), second()
    get, set_ = blas
    with _lock:
        if _worker is None:
            _worker = _Worker()
        saved = get()
        set_(1)
        try:
            reply: queue.SimpleQueue = queue.SimpleQueue()
            _worker.jobs.put((first, reply))
            try:
                b = second()
            finally:
                a, error = reply.get()
            if error is not None:
                raise error
            return a, b
        finally:
            set_(saved)
