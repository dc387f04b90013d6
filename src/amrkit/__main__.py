"""``python -m amrkit``: the same entry point as the ``amrkit`` script."""

from .cli import run

if __name__ == "__main__":
    run()
