"""``python -m repro`` -- see :mod:`repro.cli`."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
