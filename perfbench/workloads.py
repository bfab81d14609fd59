"""The benchmark's workloads: fixed lists of `qmckay` command lines.

Every request runs at the default precision of 64 digits unless its argv
says otherwise.  README.md in this directory says why each workload exists
and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    requests: tuple[tuple[str, ...], ...]


def _split(lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.split()) for line in lines.strip().splitlines())


WORKLOADS = {
    "verify": Workload(
        why="full invariant suite per group: series log/exp/mul at caps (4,4) plus crc_consistency",
        requests=_split("""
            verify --group T
            verify --group O
            verify --group I
            verify --group D:6
            verify --group C:6
        """),
    ),
    "potential": Workload(
        why="orbifold potential coefficients in mpmath with no series work: the bypass for series changes",
        requests=_split("""
            crc --group T --degree 6
            crc --group O --degree 6
            crc --group I --degree 6
            crc --group D:6 --degree 6
            crc --group C:6 --degree 6
            crc --group C:8 --degree 5
        """),
    ),
    "catalog": Workload(
        why="large data exports: cold correspondence, root systems, intersections, series mul at (6,6), renderers",
        requests=_split("""
            group --group C:20
            bps --group C:16 --format csv
            intersect --group C:16 --format csv
            intersect --group D:24
            roots --group E8
            gw --group C:8 --max-q-degree 4 --lambda-order 4
            partition --group C:8 --max-q-degree 6 --q-series-degree 6
            dt --group D:6 --max-q-degree 6 --q-series-degree 6 --format text
        """),
    ),
}

# The documented low-precision defect (exit 4 at 15 digits).  It runs once
# per `catalog` run, untimed and outside `attempted`, so the defect shows in
# every record without making the timed workload fail.
PROBE = ("group", "--group", "T", "--precision", "15")

