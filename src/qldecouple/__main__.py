"""``python -m qldecouple``: the command-line driver (see cli)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
