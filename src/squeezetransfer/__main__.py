"""`python -m squeezetransfer`: the sweep CLI."""

from .sweep import main

raise SystemExit(main())
