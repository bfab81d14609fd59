"""Frozen records behave as the frozen dataclasses they replaced."""

import dataclasses

import mpmath as mp
import pytest

import qmckay.commands as commands
import qmckay.crc as crc
import qmckay.grouprep as grouprep
import qmckay.gwtheory as gwtheory
import qmckay.intersect as intersect
import qmckay.numeric as numeric
import qmckay.rootsys as rootsys
import qmckay.series as series
from qmckay.errors import ConfigurationError
from qmckay.grouprep import GroupSpec, correspondence
from qmckay.records import record
from qmckay.rootsys import ADEType
from qmckay.series import Truncation

D3 = GroupSpec.dihedral(3)

# keyed by the public module of each record's family: `Report` of the command
# modules under `cli`, the records of crc's mpf views (`qmckay.numeric`) under `crc`
PUBLIC_HOME = {"commands": "cli", "numeric": "crc"}

RECORDS = {
    f"{PUBLIC_HOME.get(short, short)}.{name}": obj
    for module in (commands, crc, numeric, grouprep, gwtheory, intersect, rootsys, series)
    for short in [module.__name__.rpartition('.')[2]]
    for name, obj in vars(module).items()
    if isinstance(obj, type) and obj.__module__ == module.__name__
    and "__match_args__" in vars(obj)
}

# one real instance per record class, built on first use
SAMPLES = {
    "cli.Report": lambda: commands.Report({"n": 1}, ["n"], [[1]], ["n 1"]),
    "crc.LinearForm": lambda: crc.linear_forms(D3).forms[0],
    "crc.FormSystem": lambda: crc.linear_forms(D3),
    "crc._RootForm": lambda: numeric._root_forms(D3, crc.DEFAULT_DPS)[1][0],
    "crc.PotentialSeries": lambda: crc.orbifold_potential(D3, 4),
    "crc.ChangeOfVariables": lambda: crc.change_of_variables(D3),
    "grouprep.GroupSpec": lambda: GroupSpec.tetrahedral(),
    "grouprep.ConjClass": lambda: correspondence(D3).group.classes[1],
    "grouprep.Irrep": lambda: correspondence(D3).group.irreps[1],
    "grouprep.GroupModel": lambda: correspondence(D3).group,
    "grouprep.McKayGraph": lambda: grouprep.mckay_graph(correspondence(D3).binary_group),
    "grouprep.Correspondence": lambda: correspondence(D3),
    "gwtheory.BPSTable": lambda: gwtheory.bps_table(D3),
    "gwtheory.PartitionFunction": lambda: gwtheory.partition_function(D3, Truncation(2, 2)),
    "intersect.EquivariantScalar": lambda: intersect.threefold_integrals(D3).zero_point,
    "intersect.IntersectionData": lambda: intersect.threefold_integrals(D3),
    "intersect.ClassicalPotential": lambda: intersect.classical_potential(D3),
    "rootsys.ADEType": lambda: ADEType("D", 5),
    "rootsys.RootSystem": lambda: rootsys.root_system(ADEType("D", 5)),
    "series.Truncation": lambda: Truncation(q_total=2),
}

ORDERED = {"grouprep.GroupSpec", "rootsys.ADEType"}


def _dataclass_twin(cls, order=False):
    """The frozen dataclass with the record's name, fields and defaults."""
    fields = [
        (name, object, dataclasses.field(default=vars(cls)[name])) if name in vars(cls)
        else (name, object)
        for name in cls.__match_args__
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, order=order)


def _fields(r) -> dict:
    return {name: getattr(r, name) for name in r.__match_args__}


def test_every_record_class_has_a_sample():
    assert set(RECORDS) == set(SAMPLES)
    assert all(type(SAMPLES[key]()) is cls for key, cls in RECORDS.items())


@pytest.mark.parametrize("key", sorted(SAMPLES))
def test_record_matches_the_frozen_dataclass(key):
    r = SAMPLES[key]()
    cls = type(r)
    fields = _fields(r)
    values = tuple(fields.values())
    twin = _dataclass_twin(cls)(**fields)
    assert list(fields) == list(cls.__annotations__)
    assert repr(r) == repr(twin)
    assert cls(*values) == r and cls(**fields) == r
    # never equal to another class, or a tuple, with the same fields
    assert r != twin and twin != r and r != values
    assert r != record(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))(*values)
    try:
        expected = hash(twin)
    except TypeError:  # a dict or list field, as in the dataclass
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected == hash(values)


@pytest.mark.parametrize("key", sorted(SAMPLES))
def test_constructor_defaults_and_argument_errors(key):
    r = SAMPLES[key]()
    cls = type(r)
    twin = _dataclass_twin(cls)
    fields = _fields(r)
    values = tuple(fields.values())
    required = {name: value for name, value in fields.items() if name not in vars(cls)}
    assert repr(cls(**required)) == repr(twin(**required))
    first = next(iter(fields))
    bad_calls = [
        ((*values, None), {}),  # surplus positional
        (values, {"unknown": None}),
        (values[:1], {first: values[0]}),  # two values for one field
    ]
    if required:
        bad_calls.append(((), dict(list(required.items())[:-1])))  # one missing
    for args, kwargs in bad_calls:
        for build in (cls, twin):
            with pytest.raises(TypeError):
                build(*args, **kwargs)


@pytest.mark.parametrize("key", sorted(SAMPLES))
def test_records_are_frozen(key):
    r = SAMPLES[key]()
    first = next(iter(_fields(r)))
    value = getattr(r, first)
    for name in (first, "unrelated"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(r, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(r, name)
    assert getattr(r, first) is value
    assert not hasattr(r, "unrelated")


@pytest.mark.parametrize("key", sorted(SAMPLES))
def test_only_group_spec_and_ade_type_are_ordered(key):
    r = SAMPLES[key]()
    if key in ORDERED:
        assert r <= r and r >= r and not r < r and not r > r
    else:
        with pytest.raises(TypeError):
            r < r  # noqa: B015


def test_order_is_the_field_tuple_order_of_the_dataclass():
    specs = [GroupSpec.icosahedral(), GroupSpec.dihedral(5), GroupSpec.cyclic(12),
             GroupSpec.cyclic(3), GroupSpec.dihedral(2), GroupSpec.tetrahedral()]
    types = [ADEType("E", 6), ADEType("A", 7), ADEType("D", 4), ADEType("A", 1)]
    for items in (specs, types):
        twin = _dataclass_twin(type(items[0]), order=True)
        twins = sorted(twin(**_fields(r)) for r in items)
        assert [repr(r) for r in sorted(items)] == [repr(t) for t in twins]
    assert sorted(specs)[0] == GroupSpec.cyclic(3)
    with pytest.raises(TypeError):
        GroupSpec.cyclic(2) < ADEType("A", 1)  # noqa: B015


@pytest.mark.parametrize("build", [
    lambda: GroupSpec("cyclic", 1),
    lambda: GroupSpec("dihedral", 1),
    lambda: GroupSpec("tetrahedral", 2),
    lambda: GroupSpec("affine", 3),
    lambda: ADEType("D", 3),
    lambda: ADEType("F", 4),
    lambda: Truncation(q_total=-1),
    lambda: Truncation(lam=-2),
])
def test_post_init_validates(build):
    with pytest.raises(ConfigurationError):
        build()


def test_repr_text():
    assert repr(GroupSpec.dihedral(3)) == "GroupSpec(kind='dihedral', parameter=3)"
    assert repr(Truncation(big_q=2)) == "Truncation(q_total=None, big_q=2, lam=None)"
    assert repr(ADEType("E", 8)) == "ADEType(family='E', rank=8)"
    assert str(ADEType("E", 8)) == "E8"


def test_match_binds_fields_in_order():
    match GroupSpec.dihedral(7):
        case GroupSpec(kind, m):
            assert (kind, m) == ("dihedral", 7)
        case _:
            pytest.fail("GroupSpec did not match its own fields")


def test_cached_coefficients_are_no_field():
    potential = crc.orbifold_potential(D3, 5, 40)
    rebuilt = crc.PotentialSeries(**_fields(potential))
    assert "coefficients" not in vars(potential)
    with mp.workdps(50):
        expected = {key: mp.mpf(c.numerator) / c.denominator
                    for key, c in potential.rationals.items()}
    assert potential.coefficients == expected
    assert vars(potential)["coefficients"] is potential.coefficients
    assert potential == rebuilt and repr(potential) == repr(rebuilt)
    with pytest.raises(AttributeError):
        potential.coefficients = {}
