"""``python -m cadorder``: the command-line interface."""

import sys

from cadorder.cli import main

if __name__ == "__main__":
    sys.exit(main())
