"""``repro-search`` / ``python -m repro.engine.cli``: the console entry point.

The command tree lives in :mod:`repro.api.cli`; this module only keeps the
historical module path that ``setup.py`` and ``python -m`` callers use.
"""

from repro.api.cli import main

__all__ = ["main"]

if __name__ == "__main__":
    raise SystemExit(main())
