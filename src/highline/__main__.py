"""The highline command: ``python -m highline`` and the installed ``highline``
script (``highline.__main__:main``) both start here."""

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
from .cli import main

if __name__ == "__main__":
    sys.exit(main())
