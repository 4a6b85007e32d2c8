"""``python -m nlcs ...``: the ``nlcs`` command without the console script."""

import sys

from .cli import main

sys.exit(main())
