"""``python -m noisemix``: the same command line as the ``noisemix`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
