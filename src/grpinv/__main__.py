"""``python -m grpinv``: the command-line interface of ``grpinv.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
