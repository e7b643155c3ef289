"""Command line entry point: `python -m fiberfields ...` runs `fiberfields ...`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
