"""Lint configuration: the ``[tool.repro-lint]`` table in pyproject.toml.

Two knobs:

* ``select`` — the rule codes to run (empty/absent = every registered
  rule);
* ``per-directory`` — a sub-table mapping a path prefix (file or
  directory, relative to the pyproject directory, posix separators) to
  the list of rule codes *disabled* under that prefix.  Disables from
  every matching prefix accumulate, so a file exempt from RPR002 via
  ``"benchmarks"`` stays exempt even if a deeper prefix adds more.

TOML parsing uses :mod:`tomllib` (3.11+) or ``tomli`` when available.
On interpreters with neither, :data:`DEFAULT_PER_DIRECTORY` — kept in
sync with the repository's pyproject by a test — is used instead, so
the linter gives identical answers everywhere without new dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["DEFAULT_PER_DIRECTORY", "LintConfig", "load_config"]

#: Mirror of ``[tool.repro-lint.per-directory]`` in pyproject.toml.
#:
#: * ``utils/timing.py`` is the one blessed home of wall-clock reads
#:   (RPR002): the CostLedger measures real computation there.
#: * ``benchmarks`` measure wall-clock by definition (RPR002), and probe
#:   timing variance with throwaway generators (RPR005).
#: * ``models`` implement detection, so their internal ``self.detect``
#:   delegation is not a ledger bypass (RPR004).
#: * ``inference`` *is* the blessed detection path (RPR004).
#: * ``tests`` run under a relaxed profile: stress suites time out on
#:   wall-clock deadlines (RPR002), fixtures draw throwaway seeds
#:   (RPR005), and unit tests exercise detectors directly (RPR004);
#:   every other rule — including the interprocedural concurrency
#:   rules — applies in full.
DEFAULT_PER_DIRECTORY: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("src/repro/utils/timing.py", ("RPR002",)),
    ("benchmarks", ("RPR002", "RPR005")),
    ("src/repro/models", ("RPR004",)),
    ("src/repro/inference", ("RPR004",)),
    ("tests", ("RPR002", "RPR005", "RPR004")),
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration."""

    root: str = "."
    select: tuple[str, ...] = ()
    per_directory: tuple[tuple[str, tuple[str, ...]], ...] = DEFAULT_PER_DIRECTORY

    def disabled_for(self, relpath: str) -> set[str]:
        """Rule codes disabled for the file at ``relpath`` (posix)."""
        disabled: set[str] = set()
        for prefix, codes in self.per_directory:
            if relpath == prefix or relpath.startswith(prefix + "/"):
                disabled.update(codes)
        return disabled

    def enabled_for(self, relpath: str, all_codes: list[str]) -> list[str]:
        """Rule codes to run on ``relpath``, in registry order."""
        selected = self.select or tuple(all_codes)
        disabled = self.disabled_for(relpath)
        return [code for code in all_codes if code in selected and code not in disabled]


def _read_toml(path: Path) -> dict | None:
    try:
        import tomllib
    except ImportError:  # pragma: no cover - 3.10 fallback
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return None
    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except (OSError, ValueError):
        return None


def find_pyproject(start: Path) -> Path | None:
    """The nearest pyproject.toml at or above ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(start: Path | str = ".") -> LintConfig:
    """Load the lint config governing ``start`` (a file or directory).

    Falls back to the built-in defaults when no pyproject.toml is found
    or no TOML parser is available.
    """
    pyproject = find_pyproject(Path(start))
    if pyproject is None:
        return LintConfig(root=str(Path(start).resolve()))
    root = str(pyproject.parent)
    data = _read_toml(pyproject)
    if data is None:
        return LintConfig(root=root)
    table = data.get("tool", {}).get("repro-lint", {})
    select = tuple(str(code) for code in table.get("select", ()))
    per_directory_table = table.get("per-directory", None)
    if per_directory_table is None:
        per_directory = DEFAULT_PER_DIRECTORY
    else:
        per_directory = tuple(
            (str(prefix), tuple(str(code) for code in codes))
            for prefix, codes in per_directory_table.items()
        )
    return LintConfig(root=root, select=select, per_directory=per_directory)
