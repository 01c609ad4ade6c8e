"""One report record for every experiment's text.

Every result prints the same shape: a title, lines of context, a
fixed-width table, lines after it and, for a campaign, the checks its
verdict rests on.  A result states that shape once as a
:class:`Report` in its ``report()``; :class:`Reported` gives it the
one ``format()`` and the one ``passed``: a result passes when every
check it prints held.  A :class:`Column` states its header, width,
alignment and value once, so the header line and the rows cannot
drift apart.  The module sits at the top of the package so that
``experiments`` and ``javacard`` share it without loading each other.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

#: a check line: what is checked, and whether it held
Check = typing.Tuple[str, bool]


class _Missing(Exception):
    pass


class _Fields:
    """A row's fields as the mapping :meth:`str.format_map` reads: a
    dict's items or an object's attributes.  ``None`` and a key the
    dict lacks are missing."""

    def __init__(self, row: typing.Any) -> None:
        self.row = row

    def __getitem__(self, name: str) -> typing.Any:
        value = (self.row.get(name) if isinstance(self.row, dict)
                 else getattr(self.row, name))
        if value is None:
            raise _Missing(name)
        return value


@dataclasses.dataclass(frozen=True)
class Column:
    """One fixed-width column of a table.

    *value* is a template over the row's fields (``"{cycles}"``,
    ``"{energy_pj:.1f}"``) or a callable of the row; the text is
    aligned (``"<"`` or ``">"``) in *width* characters, as is the
    header.  A template whose field is ``None`` prints *missing*.
    Neighbouring columns that share a non-empty *group* get one header
    line above their own, spanning them.
    """

    header: str
    width: int
    value: typing.Union[str, typing.Callable[[typing.Any], str]]
    align: str = ">"
    missing: str = ""
    group: str = ""

    def render(self, row: typing.Any) -> str:
        if callable(self.value):
            text = self.value(row)
        else:
            try:
                text = self.value.format_map(_Fields(row))
            except _Missing:
                text = self.missing
        return f"{text:{self.align}{self.width}}"


@dataclasses.dataclass
class Report:
    """A result's text as one record.

    :meth:`text` renders the title, *before*, the column headers, one
    line per row, *after*, the *checks* and the *verdict*, in that
    order; without columns there is no header.  A row whose
    ``status`` is not ``"ok"`` did not run: it shows its first *keys*
    columns, then the *degraded* template over its fields.  The
    verdict line reads ``FAILED`` when a check failed.
    """

    title: str
    before: typing.List[str] = dataclasses.field(default_factory=list)
    columns: typing.Sequence[Column] = ()
    rows: typing.Sequence[typing.Any] = ()
    after: typing.List[str] = dataclasses.field(default_factory=list)
    checks: typing.List[Check] = dataclasses.field(default_factory=list)
    verdict: typing.Optional[str] = None
    keys: int = 1
    degraded: str = "  DEGRADED: {error}"

    @property
    def passed(self) -> bool:
        """Every check held (vacuously true without checks)."""
        return all(good for _, good in self.checks)

    def _row(self, row: typing.Any) -> str:
        columns, note = self.columns, ""
        if getattr(row, "status", "ok") != "ok":
            columns = self.columns[:self.keys]
            note = self.degraded.format_map(_Fields(row))
        return "".join(column.render(row) for column in columns) + note

    def _headers(self) -> typing.List[str]:
        if not self.columns:
            return []
        lines = ["".join(f"{column.header:{column.align}{column.width}}"
                         for column in self.columns)]
        if any(column.group for column in self.columns):
            spans = ""
            for group, members in itertools.groupby(
                    self.columns, key=lambda column: column.group):
                members = list(members)
                width = sum(column.width for column in members)
                spans += f"{group:{members[0].align}{width}}"
            lines.insert(0, spans)
        return lines

    def text(self) -> str:
        lines = [self.title, *self.before, *self._headers(),
                 *map(self._row, self.rows), *self.after]
        lines.extend(f"  [{'pass' if good else 'FAIL'}] {label}"
                     for label, good in self.checks)
        if self.verdict is not None:
            lines.append("verdict: "
                         + (self.verdict if self.passed else "FAILED"))
        return "\n".join(lines)


class Reported:
    """A result whose text is its :class:`Report`, and whose verdict is
    that text's checks."""

    def report(self) -> Report:
        raise NotImplementedError

    def format(self) -> str:
        return self.report().text()

    @property
    def passed(self) -> bool:
        """Every check the report prints held (vacuously true for a
        table or study, which prints none)."""
        return self.report().passed


def yes_no(flag: bool) -> str:
    return "yes" if flag else "NO"
