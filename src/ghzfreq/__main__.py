"""`python -m ghzfreq`: the same entry point as the `ghzfreq` console script."""

from .cli import main

if __name__ == "__main__":
    main()
