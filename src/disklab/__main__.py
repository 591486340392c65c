"""Allow ``python3 -m disklab`` to run the command-line interface."""

from .cli import run

if __name__ == "__main__":
    run()
