"""``python -m repro.faults ARGS`` == ``python -m repro faults ARGS``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["faults", *sys.argv[1:]]))
