"""`python -m procsem`: the procsem command line."""

from .cli import run

if __name__ == "__main__":
    run()
