"""The report builders of the command line, one module per subcommand.

`qmckay.cli` imports only the module of the command a request runs, so a
request compiles only that command.  Each builder takes the parsed group and
arguments and returns a `Report`: the JSON payload, and the CSV rows and text
lines as generators that `cli.render` runs only for the format asked for.
No command module imports `qmckay.cli`: run as `python -m qmckay.cli`, the
CLI is `__main__`, and importing it would execute it a second time.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..records import record

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_ARGS = 2
EXIT_GROUP = 3
EXIT_INTERNAL = 4


def canonical_token(spec) -> str:
    from ..grouprep import EXCEPTIONAL  # here, so importing this package executes no layer

    if spec.kind in EXCEPTIONAL:
        return EXCEPTIONAL[spec.kind][0]
    return f"{spec.kind[0].upper()}:{spec.parameter}"


@record
class Report:
    payload: object
    csv_fields: list[str]
    csv_rows: Iterable[list]  # a generator over the payload, run by `render`
    text_lines: Iterable[str]  # likewise, run only for text
    exit_code: int = EXIT_OK


def _rows(records, keys=()) -> Iterable[list]:
    """CSV rows of payload records: each value in turn, a list value spread
    over consecutive columns and a dict value (sparse exponents) over
    `keys`, 0 where absent."""
    for record in records:
        row = []
        for value in record.values():
            if isinstance(value, list):
                row += value
            elif isinstance(value, dict):
                row += [value.get(k, 0) for k in keys]
            else:
                row.append(value)
        yield row
