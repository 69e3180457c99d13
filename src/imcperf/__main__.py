"""`python -m imcperf`: the same entry point as the `imcperf` console script."""

from .cli import main

raise SystemExit(main())
