"""`python -m topaq`: the command-line front end (`topaq.cli`)."""

import sys

from .cli import main

sys.exit(main())
