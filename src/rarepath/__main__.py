"""``python -m rarepath``: the command-line interface."""

from rarepath.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
