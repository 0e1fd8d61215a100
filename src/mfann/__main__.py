"""Run the command-line front end as ``python -m mfann``."""

import sys

from .cli import main

sys.exit(main())
