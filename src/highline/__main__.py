"""The highline command: ``python -m highline`` and the installed ``highline``
script (``highline.__main__:main``) both start here."""

import gc
import os
import sys

# highline never calls BLAS, but numpy's OpenBLAS starts a thread per CPU
# when numpy is imported, a large part of that import's cost. Only the
# command sets this default, before anything loads numpy: a library user's
# own BLAS work keeps its threads, and a value the user sets wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the package's modules first and cli, which loads argparse and json,
# last: the load order sets the heap's layout, and cli first raised a
# desk-10x run's peak RSS by about 0.6 MB
from . import errors, events, features, framing, hlelog, linkage, pipeline
from . import cli


def main(argv: list[str] | None = None) -> int:
    """The command on ``argv`` (default ``sys.argv[1:]``). It freezes what the
    imports allocated, so that no collection traverses it again, the full
    ones at interpreter exit included; a library user's process keeps
    normal collection."""
    gc.freeze()
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
