import os
import sys

# numpy's bundled OpenBLAS starts a pool of worker threads when it loads,
# and each spins before it sleeps, but the CLI never calls BLAS or LAPACK.
# This module is the process entry (python -m coorbital and the console
# script) and `import coorbital` never loads numpy (pinned by
# tests/test_cli.py::test_only_array_paths_import_numpy), so BLAS is held
# to the calling thread before any command can load numpy. A value the
# user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main())
