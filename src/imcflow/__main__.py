"""``python -m imcflow``: the ``imcflow`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
