"""``python -m muxrepeater``: the same command line as the ``muxrepeater`` script."""

from .cli import main

if __name__ == "__main__":
    main()
