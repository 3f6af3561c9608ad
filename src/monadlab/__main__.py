"""`python -m monadlab`: the `monadlab` command."""

from monadlab.cli import main

if __name__ == "__main__":
    main()
