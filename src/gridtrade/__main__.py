"""`python -m gridtrade`: the gridtrade command line."""

import sys

from .cli import main

sys.exit(main())
