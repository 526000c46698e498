"""Lint configuration: which rules run where.

Two knobs:

* ``select`` — the rule codes to run (empty = every registered rule;
  ``repro lint --select`` sets it);
* ``per_directory`` — :data:`DEFAULT_PER_DIRECTORY`, mapping a path
  prefix (file or directory, relative to the project root, posix
  separators) to the rule codes *disabled* under that prefix.  Disables
  from every matching prefix accumulate, so a file exempt from RPR002
  via ``"benchmarks"`` stays exempt even if a deeper prefix adds more.

The project root is the directory of the nearest ``pyproject.toml``;
the policy itself lives only here, so every interpreter gives the same
answers without a TOML parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["DEFAULT_PER_DIRECTORY", "LintConfig", "load_config"]

#: The per-directory policy:
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
    """The lint config governing ``start`` (a file or directory).

    Its root is the directory of the nearest pyproject.toml at or above
    ``start``, or ``start`` itself when there is none.
    """
    pyproject = find_pyproject(Path(start))
    root = pyproject.parent if pyproject is not None else Path(start).resolve()
    return LintConfig(root=str(root))
