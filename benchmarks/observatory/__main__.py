"""``python -m benchmarks.observatory run|compare`` (see :mod:`.cli`)."""

from benchmarks.observatory.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
