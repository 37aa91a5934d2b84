"""Entry point for ``python -m aakit``."""

from .cli import main

main()
