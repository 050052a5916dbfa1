"""Run the CLI as ``python -m symbiosis_kit``."""

import sys

from .cli import main

sys.exit(main())
