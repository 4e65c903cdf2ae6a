"""``python -m skeincalc``: the command-line interface of skeincalc.cli."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
