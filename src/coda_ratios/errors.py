"""Exception hierarchy shared by all modules.

Every error raised by this package derives from :class:`CodaError`, so
callers (and the CLI) can distinguish data/usage problems from bugs.
An error gets a class of its own only when it is raised from more than one
place, some code catches it by type, or a caller or test reads the payload
it carries as attributes; every other error is a plain CodaError whose
message says what went wrong.
"""

from __future__ import annotations


class CodaError(Exception):
    """Base class for all errors raised by coda_ratios."""


# ---------------------------------------------------------------------------
# composition


class NonPositivePartError(CodaError):
    """One or more parts are zero or negative; lists every offender."""

    def __init__(self, parts):
        self.parts = tuple(parts)  # (label, value) pairs
        listing = ", ".join(f"{label}={value!r}" for label, value in self.parts)
        super().__init__(f"non-positive part value(s): {listing}")


class DuplicateLabelError(CodaError):
    """Part labels, tree leaves or the parts of a ratio or balance repeat; lists each once."""

    def __init__(self, labels):
        self.labels = tuple(labels)
        super().__init__(f"duplicate part label(s): {', '.join(self.labels)}")


class UnknownLabelError(CodaError):
    def __init__(self, labels):
        self.labels = tuple(labels)
        super().__init__(f"unknown label(s): {', '.join(self.labels)}")


class LabelMismatchError(CodaError):
    """Tree leaves do not match the expected label set."""

    def __init__(self, missing, extra):
        self.missing = frozenset(missing)
        self.extra = frozenset(extra)
        sides = (("missing", self.missing), ("extra", self.extra))
        listing = "; ".join(f"{side}: {sorted(labels)}" for side, labels in sides if labels)
        super().__init__(f"label mismatch ({listing})")


class LengthMismatchError(CodaError):
    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"size mismatch: expected {expected}, got {got}")


# ---------------------------------------------------------------------------
# partition-tree DSL


class SbpSyntaxError(CodaError):
    def __init__(self, position, expected):
        self.position = position  # byte offset into the input
        self.expected = expected
        super().__init__(f"syntax error at byte offset {position}: expected {expected}")


# ---------------------------------------------------------------------------
# statistics


class EmptyDataError(CodaError):
    def __init__(self):
        super().__init__("empty data")


class TooFewObservationsError(CodaError):
    def __init__(self, needed, got, what):
        self.needed = needed
        self.got = got
        super().__init__(f"{what} needs at least {needed} observations, got {got}")


class ZeroVarianceError(CodaError):
    """A sample's variance is zero: its values are all equal."""


class ZeroPooledVarianceError(CodaError):
    def __init__(self):
        super().__init__("pooled variance is zero; t statistic undefined")


class SingleGroupError(CodaError):
    def __init__(self, values):
        self.values = tuple(values)  # the distinct values found, sorted
        self.n_groups = len(self.values)
        listing = ", ".join(map(repr, self.values[:5])) + (", ..." if self.n_groups > 5 else "")
        super().__init__(
            f"need exactly two distinct groups, got {self.n_groups}" + (listing and f": {listing}")
        )


# ---------------------------------------------------------------------------
# dataset I/O


class MissingColumnError(CodaError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"CSV is missing required column {name!r}")


class MalformedNumberError(CodaError):
    """One or more cells failed to parse as a finite decimal number."""

    def __init__(self, cells):
        self.cells = tuple(cells)  # (line, column, raw_text)
        self.line, self.column = self.cells[0][0], self.cells[0][1]
        listing = "; ".join(
            f"line {line}, column {column!r}: {raw!r}" for line, column, raw in self.cells
        )
        super().__init__(f"malformed number(s): {listing}")


class DuplicateFirmIdError(CodaError):
    def __init__(self, line, firm_id):
        self.line = line  # None when not tied to a CSV line
        self.firm_id = firm_id
        where = f" at line {line}" if line is not None else ""
        super().__init__(f"duplicate firm_id {firm_id!r}{where}")


class ZeroCellError(CodaError):
    def __init__(self, cells, detail="zero values are not allowed under the 'reject' policy"):
        self.cells = tuple(cells)  # (firm_id, part)
        listing = ", ".join(f"{firm}:{part}" for firm, part in self.cells)
        super().__init__(f"{detail}: {listing}")


class AllRowsDroppedError(CodaError):
    def __init__(self, n):
        self.n = n
        super().__init__(f"zero policy 'drop_row' removed all {n} firms")


class ConfigError(CodaError):
    """The configuration file or object is invalid."""
