"""``python -m repro.bench ARGS`` == ``python -m repro bench ARGS``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
