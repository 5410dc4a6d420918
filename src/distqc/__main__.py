"""``python -m distqc``: the ``distqc`` command line (``distqc.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
