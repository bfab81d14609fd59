"""JSON Schemas for every machine-readable CLI payload.

Numbers travel as strings (rationals "p/q" or bare integers "n", reals as
decimal strings), so nothing here permits a JSON float.  Exponent powers,
ranks and t-powers are genuine integers.  The schemas are deliberately
strict: additionalProperties is off everywhere, so an accidental field
rename breaks validation rather than drifting silently.
"""

RATIONAL = {"type": "string", "pattern": r"^-?[0-9]+(/[0-9]+)?$"}
INTEGER_STRING = {"type": "string", "pattern": r"^-?[0-9]+$"}
DECIMAL = {"type": "string", "minLength": 1}
INT = {"type": "integer"}

_EXPONENTS = {
    "type": "object",
    "patternProperties": {".*": {"type": "integer", "minimum": 1}},
    "additionalProperties": False,
}

SERIES_TERMS = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "exponents": _EXPONENTS,
            "t_power": INT,
            "numerator": INTEGER_STRING,
            "denominator": {"type": "string", "pattern": r"^[0-9]+$"},
        },
        "required": ["exponents", "t_power", "numerator", "denominator"],
        "additionalProperties": False,
    },
}

ROOTS_REPORT = {
    "type": "object",
    "properties": {
        "ade": {"type": "string", "pattern": r"^[ADE][0-9]+$"},
        "rank": {"type": "integer", "minimum": 1},
        "coxeter_number": {"type": "integer", "minimum": 2},
        "positive_root_count": {"type": "integer", "minimum": 1},
        "positive_roots": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
    },
    "required": [
        "ade", "rank", "coxeter_number", "positive_root_count", "positive_roots",
    ],
    "additionalProperties": False,
}

GROUP_REPORT = {
    "type": "object",
    "properties": {
        "group": {"type": "string"},
        "order": {"type": "integer", "minimum": 2},
        "binary_order": {"type": "integer", "minimum": 4},
        "ade": {"type": "string"},
        "classes": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "label": {"type": "string"},
                    "size": {"type": "integer", "minimum": 1},
                    "element_order": {"type": "integer", "minimum": 1},
                    "chi_v": DECIMAL,
                    "age": RATIONAL,
                },
                "required": ["label", "size", "element_order", "chi_v", "age"],
                "additionalProperties": False,
            },
        },
        "irreps": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "label": {"type": "string"},
                    "dim": {"type": "integer", "minimum": 1},
                },
                "required": ["label", "dim"],
                "additionalProperties": False,
            },
        },
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "index": {"type": "integer", "minimum": 0},
                    "binary_irrep": {"type": "string"},
                    "curve_irrep": {"type": ["string", "null"]},
                    "mark": {"type": "integer", "minimum": 1},
                },
                "required": ["index", "binary_irrep", "curve_irrep", "mark"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["group", "order", "binary_order", "ade", "classes", "irreps", "nodes"],
    "additionalProperties": False,
}

BPS_TABLE = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "class": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            "n0": RATIONAL,
            "fiber_size": {"type": "integer", "enum": [1, 2, 4, 8]},
        },
        "required": ["class", "n0", "fiber_size"],
        "additionalProperties": False,
    },
}

GW_REPORT = {
    "type": "object",
    "properties": {
        "group": {"type": "string"},
        "max_q_degree": {"type": "integer", "minimum": 0},
        "lambda_order": {"type": "integer", "minimum": 0},
        "invariants": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "class": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                    },
                    "genus": {"type": "integer", "minimum": 0},
                    "lambda_power": {"type": "integer", "minimum": -2},
                    "coefficient": RATIONAL,
                },
                "required": ["class", "genus", "lambda_power", "coefficient"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["group", "max_q_degree", "lambda_order", "invariants"],
    "additionalProperties": False,
}

PARTITION_REPORT = {
    "type": "object",
    "properties": {
        "group": {"type": "string"},
        "kind": {"type": "string", "enum": ["gw", "dt"]},
        "max_q_degree": {"type": "integer", "minimum": 0},
        "big_q_degree": {"type": "integer", "minimum": 0},
        "variables": {"type": "array", "items": {"type": "string"}},
        "terms": SERIES_TERMS,
    },
    "required": [
        "group", "kind", "max_q_degree", "big_q_degree", "variables", "terms",
    ],
    "additionalProperties": False,
}

_RATIONAL_MATRIX = {"type": "array", "items": {"type": "array", "items": RATIONAL}}

_SCALAR_BLOCK = {
    "type": "object",
    "properties": {"value": RATIONAL, "t_power": INT},
    "required": ["value", "t_power"],
    "additionalProperties": False,
}

_MATRIX_BLOCK = {
    "type": "object",
    "properties": {"matrix": _RATIONAL_MATRIX, "t_power": INT},
    "required": ["matrix", "t_power"],
    "additionalProperties": False,
}

_TENSOR_BLOCK = {
    "type": "object",
    "properties": {
        "tensor": {"type": "array", "items": _RATIONAL_MATRIX},
        "t_power": INT,
    },
    "required": ["tensor", "t_power"],
    "additionalProperties": False,
}

_INTEGRALS_BLOCK = {
    "type": "object",
    "properties": {
        "basis": {"type": "array", "items": {"type": "string"}},
        "zero_point": _SCALAR_BLOCK,
        "one_point": {"type": "array", "items": RATIONAL},
        "two_point": _MATRIX_BLOCK,
        "three_point": _TENSOR_BLOCK,
    },
    "required": ["basis", "zero_point", "one_point", "two_point", "three_point"],
    "additionalProperties": False,
}

INTERSECT_REPORT = {
    "type": "object",
    "properties": {
        "group": {"type": "string"},
        "threefold": _INTEGRALS_BLOCK,
        "surface": _INTEGRALS_BLOCK,
        "pairing": _MATRIX_BLOCK,
        "classical": {
            "type": "object",
            "properties": {
                "delta_e_cubed": _SCALAR_BLOCK,
                "delta_pair": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "class": {"type": "string"},
                            "value": RATIONAL,
                            "t_power": INT,
                        },
                        "required": ["class", "value", "t_power"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["delta_e_cubed", "delta_pair"],
            "additionalProperties": False,
        },
    },
    "required": ["group", "threefold", "surface", "pairing", "classical"],
    "additionalProperties": False,
}

CRC_REPORT = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "degree": {"type": "integer", "minimum": 3},
            "exponents": _EXPONENTS,
            "coefficient": DECIMAL,
            "rational_guess": RATIONAL,
        },
        "required": ["degree", "exponents", "coefficient", "rational_guess"],
        "additionalProperties": False,
    },
}

VERIFY_REPORT = {
    "type": "object",
    "properties": {
        "group": {"type": "string"},
        "status": {"type": "string", "enum": ["pass", "fail"]},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "status": {"type": "string", "enum": ["pass", "fail"]},
                    "detail": {"type": "string"},
                },
                "required": ["name", "status", "detail"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["group", "status", "checks"],
    "additionalProperties": False,
}

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
