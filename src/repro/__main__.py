"""``python -m repro …`` is the ``repro`` command line (:mod:`repro.cli`)."""

import sys

from .cli import main

# Guarded: a spawned worker process (--jobs N) re-imports the main module.
if __name__ == "__main__":
    sys.exit(main())
