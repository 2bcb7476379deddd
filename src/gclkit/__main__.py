"""``python -m gclkit``: the same command line as the ``gclkit`` script."""
from gclkit.cli import main

raise SystemExit(main())
