"""Command line front end.

Every subcommand takes a group, computes one block of the correspondence
data, and emits a deterministic report: identical invocations produce
identical bytes.  JSON payloads carry all numbers as strings ("p/q" for
rationals, decimal strings for reals) and validate against the schemas in
`qmckay.schemas`.  JSON is written in one direct pass, byte-identical to
`json.dumps(payload, indent=2, sort_keys=True)` plus a newline; it quotes
strings with `_json`, the C module under the `json` package, which is loaded
only when JSON is asked for, and quotes each distinct dict key once per
render: a memo holds its quoted form and ": ", so a record list that repeats
its keys thousands of times reuses them.  CSV is drawn from the payload's
records, and only when CSV is asked for: each record is one row in column
order, a list value fills consecutive columns, and a sparse exponent dict
fills one column per variable, 0 where absent.  Text is for reading, and its
lines are likewise built only when text is asked for.

This module is the plumbing: the parser, the group grammar, the precision,
rendering and exit codes.  Each subcommand is one row of `SUBCOMMANDS`,
which the parser, the bounds check and `COMMANDS` read; `COMMANDS` imports
the command's module in `qmckay.commands` only when that command runs.
A canonical argv (the subcommand's exact name, then flag and value pairs
with each flag spelled in full, no value starting with "-", and every value
of its flag's type and choices) is read straight from `SUBCOMMANDS` and
`COMMON_FLAGS`, without argparse, which is imported only for any other argv:
help, every error message and every other spelling still come from
argparse, with the same bytes.

Exit codes: 0 success, 1 verification failure, 2 bad arguments (a flag below
its least value, a precision outside 10..4000 digits, an --output path or a
stdout that cannot be written) or out of memory, 3 unsupported group, 4 internal
consistency failure (rounding residual, tan pole, broken invariant) or any
other unexpected error, each reported as one stderr line.  The bounds, the
group and the precision are checked in that order, and the first bad one
is the one reported.

Group grammar: "C:k" (cyclic, k >= 2), "D:m" (dihedral, m >= 2), "T", "O",
"I", or a root-system alias "A3", "D5", "E6", ...  An A-alias names the
root system of the binary cover, so "A3" is the cyclic group of order 2,
not of order 3 (odd A-ranks only; even ones match no rotation group).
"""

from __future__ import annotations

import fractions  # noqa: F401 - see _deferred
import importlib.util
import io
import os
import re
import sys
from types import SimpleNamespace

from . import DEFAULT_DPS
from .commands import (  # noqa: F401 - EXIT_OK, EXIT_VERIFY and canonical_token re-exported
    EXIT_ARGS,
    EXIT_GROUP,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY,
    Report,
    canonical_token,
)
from .errors import ConfigurationError, InternalConsistencyError, PoleError


def _deferred(name: str):
    """The module qmckay.<name>, executed on the first access to one of its
    attributes (`importlib.util.LazyLoader`), so a command compiles only the
    layers it runs; a module already imported is returned as it is.

    Every module a layer imports at its top is deferred here or imported
    above (`fractions` for the layers, which the CLI itself does not use),
    so executing a deferred module adds no entry to `sys.modules`.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# no command runs `exact` or `numeric`; perfbench's tracer wraps functions of both
crc, exact, grouprep, gwtheory, intersect, modular, numeric, rootsys, series = map(_deferred, (
    "crc", "exact", "grouprep", "gwtheory", "intersect", "modular", "numeric", "rootsys",
    "series",
))

PRECISION_ENV = "QMCKAY_PRECISION"
MIN_PRECISION = 10
# crc rounds its exact coefficients to precision + `qmckay._GUARD` digits
# before it prints them; the cap keeps that rounding bounded
MAX_PRECISION = 4_000


class UnsupportedGroupError(Exception):
    """A recognisable group name outside the supported families."""


def parse_group(token: str) -> grouprep.GroupSpec:
    """Parse "C:k" / "D:m" / "T" / "O" / "I" or an ADE alias.

    Raises UnsupportedGroupError for well-formed names outside the families
    (C:1, A4, D3, E5, ...) and ValueError for unparseable ones.
    """
    GroupSpec = grouprep.GroupSpec
    text = token.strip().upper()
    for kind, (letter, _, _) in grouprep.EXCEPTIONAL.items():
        if text in (letter, kind.upper()):
            return GroupSpec(kind)
    m = re.fullmatch(r"([CD]):([0-9]+)", text)
    if m:
        family, value = m.group(1), int(m.group(2))
        if value < 2:
            raise UnsupportedGroupError(
                f"{token}: the {'cyclic' if family == 'C' else 'dihedral'} "
                f"parameter must be at least 2"
            )
        return GroupSpec.cyclic(value) if family == "C" else GroupSpec.dihedral(value)
    m = re.fullmatch(r"([ADE])([0-9]+)", text)
    if m:
        family, rank = m.group(1), int(m.group(2))
        if family == "A":
            if rank < 3 or rank % 2 == 0:
                raise UnsupportedGroupError(
                    f"{token}: A-aliases name the binary cover's root system, "
                    f"so only odd ranks >= 3 occur (A3 = C:2, A5 = C:3, ...)"
                )
            return GroupSpec.cyclic((rank + 1) // 2)
        if family == "D":
            if rank < 4:
                raise UnsupportedGroupError(
                    f"{token}: D-aliases start at D4 (= D:2)"
                )
            return GroupSpec.dihedral(rank - 2)
        for kind, (_, e_rank, _) in grouprep.EXCEPTIONAL.items():
            if rank == e_rank:
                return GroupSpec(kind)
        raise UnsupportedGroupError(f"{token}: exceptional aliases are E6, E7, E8")
    raise ValueError(f"cannot parse group {token!r}")


def _builder(module: str, command: str):
    """The report builder `cmd_<command>` of qmckay.commands.<module>, which
    is imported on the first call, so a request compiles only its command."""
    def build(spec: grouprep.GroupSpec, args) -> Report:
        home = importlib.import_module(f"{__package__}.commands.{module}")
        return getattr(home, f"cmd_{command}")(spec, args)
    return build


# the integer flags of partition, dt and verify
SERIES_FLAGS = (
    ("--max-q-degree", 4, 0, "total degree cap on the curve-class variables q_i"),
    ("--q-series-degree", 4, 0, "degree cap on the box-counting variable Q"),
)

# per subcommand, in --help order: name, module under qmckay.commands, help,
# and its integer flags as (flag, default, least value, help)
SUBCOMMANDS = (
    ("roots", "roots", "positive roots of the associated ADE system", ()),
    ("group", "group", "character and McKay-correspondence data", ()),
    ("bps", "bps", "genus-zero BPS table", ()),
    ("gw", "gw", "Gromov-Witten invariants per curve class", (
        ("--max-q-degree", 4, 0, "total degree cap on the curve classes listed"),
        ("--lambda-order", 4, 0, "largest lambda power reported"),
    )),
    ("partition", "partition", "reduced GW partition function", SERIES_FLAGS),
    ("dt", "partition", "reduced DT (box-counting) series", SERIES_FLAGS),
    ("intersect", "intersect", "equivariant intersection numbers", ()),
    ("crc", "crc", "orbifold potential Taylor coefficients", (
        ("--degree", 4, 3, "highest total degree of reported coefficients (>= 3)"),
    )),
    ("verify", "verify", "run the invariant suite for one group", SERIES_FLAGS),
)

COMMANDS = {name: _builder(module, name) for name, module, _, _ in SUBCOMMANDS}
_INT_FLAGS = {name: flags for name, _, _, flags in SUBCOMMANDS}

# the flags every subcommand takes, in --help order, with their keywords of
# `add_argument`, which `_canonical_args` reads too
COMMON_FLAGS = (
    ("--group", {
        "required": True,
        "help": "C:k, D:m, T, O, I, or root-system alias (A3 = C:2, D5 = D:3, E6 = T)",
    }),
    ("--precision", {"type": int, "default": None, "help": (
        f"digits crc prints of its exact coefficients (at most 30), "
        f"{MIN_PRECISION} to {MAX_PRECISION} (default ${PRECISION_ENV} or {DEFAULT_DPS})"
    )}),
    ("--format", {"choices": ("json", "csv", "text"), "default": "json"}),
    ("--output", {"default": None, "help": "write the report to a file"}),
)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _flags(command: str) -> tuple:
    """(flag, `add_argument` keywords) of each flag `command` takes, in
    --help order: the common flags, then the integer flags of its row."""
    return (*COMMON_FLAGS, *(
        (flag, {"type": int, "default": default, "help": text})
        for flag, default, _, text in _INT_FLAGS[command]))


def build_parser():
    # here, so a canonical argv, which `_canonical_args` reads, never loads it
    import argparse

    parser = argparse.ArgumentParser(
        prog="qmckay",
        description="Quantum McKay correspondence data for polyhedral singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, _, summary, _ in SUBCOMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag, options in _flags(name):
            p.add_argument(flag, **options)
    return parser


def _canonical_args(argv) -> SimpleNamespace | None:
    """The arguments `build_parser().parse_args(argv)` returns, with equal
    `vars()`, when argv is canonical: a subcommand's exact name, then (flag,
    value) pairs, each flag spelled as in that subcommand's `_flags`, no
    value starting with "-", each value one its flag's type and choices
    accept, and every required flag given; a repeated flag's last value
    wins.  None for any other argv, which argparse decides: help, errors,
    abbreviations, --flag=value, negative numbers.
    """
    if not argv or argv[0] not in _INT_FLAGS or len(argv) % 2 == 0:
        return None
    flags = dict(_flags(argv[0]))
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        options = flags.get(flag)
        if options is None or value.startswith("-"):
            return None
        if "type" in options:
            try:
                value = options["type"](value)
            except ValueError:
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[flag] = value
    if any(options.get("required") and flag not in given for flag, options in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], **{
        flag[2:].replace("-", "_"): given.get(flag, options.get("default"))
        for flag, options in flags.items()})


def _validate_bounds(args) -> None:
    """Raise ValueError for the first integer flag of the request's row
    that lies below its least value."""
    for flag, _, least, _ in _INT_FLAGS[args.command]:
        if getattr(args, flag[2:].replace("-", "_")) < least:
            raise ValueError(f"{flag} must be " + (
                "nonnegative" if least == 0 else f"at least {least}"))


def _resolve_precision(args) -> int:
    if args.precision is not None:
        dps = args.precision
    else:
        env = os.environ.get(PRECISION_ENV)
        if env is None:
            return DEFAULT_DPS
        try:
            dps = int(env)
        except ValueError:
            raise ValueError(f"{PRECISION_ENV} must be an integer, got {env!r}")
    if not MIN_PRECISION <= dps <= MAX_PRECISION:
        raise ValueError(f"precision must be {MIN_PRECISION} to {MAX_PRECISION} digits")
    return dps


class _KeyHeads(dict):
    """The memo of a render's dict keys: ``heads[key]`` is ``quote(key) +
    ": "``, quoted on the key's first use only, so a record list that repeats
    its keys quotes each once."""

    def __init__(self, quote):
        self.quote = quote

    def __missing__(self, key):
        head = self[key] = self.quote(key) + ": "
        return head


def _write_json(value, put, quote, heads: _KeyHeads, pad: str) -> None:
    """Write `value` through `put` byte for byte as `json.dumps(value,
    indent=2, sort_keys=True)` does; `pad` is a newline and the indent of
    `value`, and `heads` a memo of quoted keys that one render shares.  A
    str or int in a container is one `put` of separator and value, with no
    call.  Anything but str, int, bool, None, list, tuple and a dict with
    str keys is a TypeError.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return put("[]")
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            kind = type(item)
            if kind is str:
                put(sep + quote(item))
            elif kind is int:
                put(sep + int.__repr__(item))
            else:
                put(sep)
                _write_json(item, put, quote, heads, inner)
            sep = comma
        put(pad)
        return put("]")
    if kind is dict:
        if not value:
            return put("{}")
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"payload key {key!r} is not a str")
            item = value[key]
            kind = type(item)
            if kind is str:
                put(sep + heads[key] + quote(item))
            elif kind is int:
                put(sep + heads[key] + int.__repr__(item))
            else:
                put(sep + heads[key])
                _write_json(item, put, quote, heads, inner)
            sep = comma
        put(pad)
        return put("}")
    if kind is str:
        return put(quote(value))
    if kind is int:
        return put(int.__repr__(value))
    if value is None or kind is bool:
        return put("null" if value is None else "true" if value else "false")
    raise TypeError(f"payload value {value!r} of type {kind.__name__} has no JSON form")


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        # here, so only a --format json request loads it; the C function
        # json.encoder re-exports, without the json package around it
        from _json import encode_basestring_ascii

        out: list[str] = []
        _write_json(report.payload, out.append, encode_basestring_ascii,
                    _KeyHeads(encode_basestring_ascii), "\n")
        out.append("\n")
        return "".join(out)
    if fmt == "csv":
        import csv  # here, so only a --format csv request loads it

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(report.csv_fields)
        writer.writerows(report.csv_rows)
        return buffer.getvalue()
    return "\n".join(report.text_lines) + "\n"


def _drop_stdout() -> None:
    """After a failed write to stdout, point its descriptor at the null
    device, so the flush at interpreter exit drops what is still buffered
    instead of failing again and printing a traceback."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # a stream with no descriptor keeps nothing
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _canonical_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_ARGS

    try:
        _validate_bounds(args)
        spec = parse_group(args.group)
        args.precision = _resolve_precision(args)
    except UnsupportedGroupError as exc:
        print(f"qmckay: unsupported group: {exc}", file=sys.stderr)
        return EXIT_GROUP
    except ValueError as exc:
        print(f"qmckay: {exc}", file=sys.stderr)
        return EXIT_ARGS

    try:
        report = COMMANDS[args.command](spec, args)
        text = render(report, args.format)
    except (PoleError, InternalConsistencyError, ConfigurationError) as exc:
        print(f"qmckay: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print(f"qmckay: out of memory: {args.command} --group {args.group}", file=sys.stderr)
        return EXIT_ARGS
    except Exception as exc:  # a programming error: one line, not a traceback and exit 1
        print(f"qmckay: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if args.output:
            with open(args.output, "w", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # BrokenPipeError too
        if not args.output:
            _drop_stdout()
        print(f"qmckay: cannot write {args.output or '<stdout>'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_ARGS
    return report.exit_code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
