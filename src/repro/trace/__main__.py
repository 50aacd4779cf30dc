"""``python -m repro.trace ARGS`` == ``python -m repro trace ARGS``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["trace", *sys.argv[1:]]))
