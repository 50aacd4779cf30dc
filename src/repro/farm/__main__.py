"""``python -m repro.farm ARGS`` == ``python -m repro farm ARGS``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["farm", *sys.argv[1:]]))
