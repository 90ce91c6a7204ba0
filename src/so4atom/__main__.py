"""``python -m so4atom``: the command line front end of so4atom.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
