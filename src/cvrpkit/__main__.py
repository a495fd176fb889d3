"""Entry point for ``python -m cvrpkit``."""

from .cli import main

if __name__ == "__main__":
    main()
