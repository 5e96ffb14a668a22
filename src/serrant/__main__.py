"""``python -m serrant``: the same command line as the ``serrant`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
