"""The highline command: ``python -m highline`` and the installed ``highline``
script (``highline.__main__:run``) both start here.

The command sets its process's policy, and only the command does:
importing this module loads nothing and changes nothing. ``main``
defaults ``OPENBLAS_NUM_THREADS`` to 1, loads the package with the
collector off, has glibc keep freed memory for reuse and freezes what the
imports allocated; ``run`` ends the process without interpreter teardown."""

import atexit
import gc
import os
import sys

# glibc's mallopt parameters (malloc.h), and the values the command sets
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_MMAP_THRESHOLD = 16 << 20
_TOP_PAD = 4 << 20
# a user's own malloc settings, each of which the policy leaves alone
_MALLOC_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_")


def _reuse_freed_memory() -> None:
    """Have glibc serve arrays under ``_MMAP_THRESHOLD`` from the heap and
    keep ``_TOP_PAD`` past the heap's top when it trims, so that a freed
    temporary is reused by the next one. By default glibc maps each array of
    128 KiB or more afresh and unmaps it when freed, and the next one faults
    its pages in again, zeroed: on desk-10x, half the run's page faults and
    6% of its time. A user's ``MALLOC_*_`` variable or ``glibc.malloc``
    tunable wins, and a libc with no ``mallopt`` (macOS, Windows) is left
    as it is."""
    if any(name in os.environ for name in _MALLOC_VARIABLES) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load by None
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TOP_PAD, _TOP_PAD)


def main(argv: list[str] | None = None) -> int:
    """The command on ``argv`` (default ``sys.argv[1:]``); returns its exit
    code. A library user's process keeps its own environment, normal
    collection and glibc's defaults."""
    # highline never calls BLAS, but numpy's OpenBLAS starts a thread per CPU
    # when numpy is imported, a large part of that import's cost; a value the
    # user sets wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # the freeze keeps every object the imports make, so a collection during
    # them would traverse the heap to free next to nothing
    enabled = gc.isenabled()
    gc.disable()
    try:
        # the package's modules first and cli, which loads argparse and json,
        # last: the load order sets the heap's layout, and cli first raised a
        # desk-10x run's peak RSS by 0.25-0.75 MB
        from . import errors, events, features, framing, hlelog, linkage, pipeline
        from . import cli

        _reuse_freed_memory()
        gc.freeze()  # so that no later collection traverses them again
    finally:
        if enabled:
            gc.enable()
    return cli.main(argv)


def run(argv: list[str] | None = None) -> None:
    """The entry point: ``main``, then the end of the process with its exit
    code, or with that of argparse's ``SystemExit``. The exit handlers run
    and stdout and stderr are flushed; the interpreter's teardown, which
    would free every module's objects, is skipped. Where a flush fails,
    the process exits as Python does and reports it."""
    try:
        code = main(argv)
    except SystemExit as exc:
        if not isinstance(exc.code, int | None):  # a message, which Python prints
            raise
        code = exc.code or 0
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None where the descriptor was closed at start
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
