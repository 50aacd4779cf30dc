"""``python -m repro.analyze ARGS`` == ``python -m repro analyze ARGS``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["analyze", *sys.argv[1:]]))
