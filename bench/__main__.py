"""``python3 -m bench`` — see :mod:`bench.harness`."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
