"""``python -m repro.protocols ARGS`` == ``python -m repro protocols ARGS``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["protocols", *sys.argv[1:]]))
