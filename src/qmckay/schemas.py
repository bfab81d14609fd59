"""JSON Schemas for every machine-readable CLI payload.

Numbers travel as strings (rationals "p/q" or bare integers "n", reals as
decimal strings), so nothing here permits a JSON float.  Exponent powers,
ranks and t-powers are genuine integers.  The schemas are deliberately
strict: every object is built by `_fields`, which requires each listed
field and turns additionalProperties off, so an accidental field rename
breaks validation rather than drifting silently.
"""

RATIONAL = {"type": "string", "pattern": r"^-?[0-9]+(/[0-9]+)?$"}
INTEGER_STRING = {"type": "string", "pattern": r"^-?[0-9]+$"}
DECIMAL = {"type": "string", "minLength": 1}
INT = {"type": "integer"}


def _fields(properties: dict) -> dict:
    """A strict object schema: exactly the given fields, each one required."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


_EXPONENTS = {
    "type": "object",
    "patternProperties": {".*": {"type": "integer", "minimum": 1}},
    "additionalProperties": False,
}

SERIES_TERMS = {
    "type": "array",
    "items": _fields({
        "exponents": _EXPONENTS,
        "t_power": INT,
        "numerator": INTEGER_STRING,
        "denominator": {"type": "string", "pattern": r"^[0-9]+$"},
    }),
}

ROOTS_REPORT = _fields({
    "ade": {"type": "string", "pattern": r"^[ADE][0-9]+$"},
    "rank": {"type": "integer", "minimum": 1},
    "coxeter_number": {"type": "integer", "minimum": 2},
    "positive_root_count": {"type": "integer", "minimum": 1},
    "positive_roots": {
        "type": "array",
        "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
    },
})

GROUP_REPORT = _fields({
    "group": {"type": "string"},
    "order": {"type": "integer", "minimum": 2},
    "binary_order": {"type": "integer", "minimum": 4},
    "ade": {"type": "string"},
    "classes": {
        "type": "array",
        "items": _fields({
            "label": {"type": "string"},
            "size": {"type": "integer", "minimum": 1},
            "element_order": {"type": "integer", "minimum": 1},
            "chi_v": DECIMAL,
            "age": RATIONAL,
        }),
    },
    "irreps": {
        "type": "array",
        "items": _fields({
            "label": {"type": "string"},
            "dim": {"type": "integer", "minimum": 1},
        }),
    },
    "nodes": {
        "type": "array",
        "items": _fields({
            "index": {"type": "integer", "minimum": 0},
            "binary_irrep": {"type": "string"},
            "curve_irrep": {"type": ["string", "null"]},
            "mark": {"type": "integer", "minimum": 1},
        }),
    },
})

BPS_TABLE = {
    "type": "array",
    "items": _fields({
        "class": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "n0": RATIONAL,
        "fiber_size": {"type": "integer", "enum": [1, 2, 4, 8]},
    }),
}

GW_REPORT = _fields({
    "group": {"type": "string"},
    "max_q_degree": {"type": "integer", "minimum": 0},
    "lambda_order": {"type": "integer", "minimum": 0},
    "invariants": {
        "type": "array",
        "items": _fields({
            "class": {
                "type": "array",
                "items": {"type": "integer", "minimum": 0},
            },
            "genus": {"type": "integer", "minimum": 0},
            "lambda_power": {"type": "integer", "minimum": -2},
            "coefficient": RATIONAL,
        }),
    },
})

PARTITION_REPORT = _fields({
    "group": {"type": "string"},
    "kind": {"type": "string", "enum": ["gw", "dt"]},
    "max_q_degree": {"type": "integer", "minimum": 0},
    "big_q_degree": {"type": "integer", "minimum": 0},
    "variables": {"type": "array", "items": {"type": "string"}},
    "terms": SERIES_TERMS,
})

_RATIONAL_MATRIX = {"type": "array", "items": {"type": "array", "items": RATIONAL}}

_SCALAR_BLOCK = _fields({"value": RATIONAL, "t_power": INT})

_MATRIX_BLOCK = _fields({"matrix": _RATIONAL_MATRIX, "t_power": INT})

_TENSOR_BLOCK = _fields({
    "tensor": {"type": "array", "items": _RATIONAL_MATRIX},
    "t_power": INT,
})

_INTEGRALS_BLOCK = _fields({
    "basis": {"type": "array", "items": {"type": "string"}},
    "zero_point": _SCALAR_BLOCK,
    "one_point": {"type": "array", "items": RATIONAL},
    "two_point": _MATRIX_BLOCK,
    "three_point": _TENSOR_BLOCK,
})

INTERSECT_REPORT = _fields({
    "group": {"type": "string"},
    "threefold": _INTEGRALS_BLOCK,
    "surface": _INTEGRALS_BLOCK,
    "pairing": _MATRIX_BLOCK,
    "classical": _fields({
        "delta_e_cubed": _SCALAR_BLOCK,
        "delta_pair": {
            "type": "array",
            "items": _fields({
                "class": {"type": "string"},
                "value": RATIONAL,
                "t_power": INT,
            }),
        },
    }),
})

CRC_REPORT = {
    "type": "array",
    "items": _fields({
        "degree": {"type": "integer", "minimum": 3},
        "exponents": _EXPONENTS,
        "coefficient": DECIMAL,
        "rational_guess": RATIONAL,
    }),
}

VERIFY_REPORT = _fields({
    "group": {"type": "string"},
    "status": {"type": "string", "enum": ["pass", "fail"]},
    "checks": {
        "type": "array",
        "items": _fields({
            "name": {"type": "string"},
            "status": {"type": "string", "enum": ["pass", "fail"]},
            "detail": {"type": "string"},
        }),
    },
})

BY_COMMAND = {
    "roots": ROOTS_REPORT,
    "group": GROUP_REPORT,
    "bps": BPS_TABLE,
    "gw": GW_REPORT,
    "partition": PARTITION_REPORT,
    "dt": PARTITION_REPORT,
    "intersect": INTERSECT_REPORT,
    "crc": CRC_REPORT,
    "verify": VERIFY_REPORT,
}
