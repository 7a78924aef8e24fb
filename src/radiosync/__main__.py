"""``python -m radiosync``: the ``radiosync`` command line."""

import sys

from radiosync.cli import main

sys.exit(main())
