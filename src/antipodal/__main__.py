"""`python -m antipodal ARGS` runs the `antipodal` command line."""

import sys

from .cli import main

sys.exit(main())
