"""``python -m monoproof``: the same command line as the ``monoproof`` script."""

import sys

from monoproof.cli import main

if __name__ == "__main__":
    sys.exit(main())
