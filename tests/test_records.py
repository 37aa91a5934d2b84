"""The seven immutable record classes, and what importing the package loads.

``Semiring``, ``AllKeys``, ``KeySet``, ``KeyRange``, ``KeyPrefix``,
``DenseProjection`` and ``EigenResult`` compare, hash, print, construct,
match, refuse changes, pickle and copy as frozen records do.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import aakit
from aakit import (
    ALL,
    ARITH,
    AllKeys,
    AssociativeArray,
    DenseProjection,
    EigenResult,
    KeyPrefix,
    KeyRange,
    KeySet,
    Semiring,
    arrayprod,
)

_VEC = AssociativeArray({("a", "v1"): 1.0})


def _plus(a, b):
    return a + b


def _times(a, b):
    return a * b


# Each class with two equal instances built differently (one by keywords where
# it has fields), one unequal instance and its exact repr.
CASES = [
    (Semiring("s", _plus, _times, 0.0, 1.0, True),
     Semiring(name="s", plus=_plus, times=_times, zero=0.0, one=1.0, numeric_only=True),
     Semiring("s", _plus, _times, 0.0, None, True),
     "Semiring('s')"),
    (AllKeys(), ALL, None, "AllKeys()"),
    (KeySet(["b", "a"]), KeySet(keys=("a", "b")), KeySet(["a"]), "KeySet(keys=('a', 'b'))"),
    (KeyRange("a", "b"), KeyRange(lo="a", hi="b"), KeyRange("a", "c"), "KeyRange(lo='a', hi='b')"),
    (KeyPrefix("ab"), KeyPrefix(prefix="ab"), KeyPrefix("a"), "KeyPrefix(prefix='ab')"),
    (DenseProjection(("a",), ("b",), ((1.0,),)),
     DenseProjection(row_order=("a",), col_order=("b",), cells=((1.0,),)),
     DenseProjection(("a",), ("b",), ((2.0,),)),
     "DenseProjection(row_order=('a',), col_order=('b',), cells=((1.0,),))"),
    (EigenResult(2.0, _VEC, 3, 0.0),
     EigenResult(eigenvalue=2.0, eigenvector=_VEC, iterations=3, residual=0.0),
     EigenResult(2.0, _VEC, 4, 0.0),
     "EigenResult(eigenvalue=2.0, eigenvector=AssociativeArray({('a', 'v1'): 1.0}), "
     "iterations=3, residual=0.0)"),
]
IDS = [type(case[0]).__name__ for case in CASES]
FIELDS = {
    Semiring: ("name", "plus", "times", "zero", "one", "numeric_only"),
    AllKeys: (),
    KeySet: ("keys",),
    KeyRange: ("lo", "hi"),
    KeyPrefix: ("prefix",),
    DenseProjection: ("row_order", "col_order", "cells"),
    EigenResult: ("eigenvalue", "eigenvector", "iterations", "residual"),
}
SPECS = [AllKeys(), KeySet(["b", "a"]), KeyRange("a", "b"), KeyPrefix("a")]


@pytest.mark.parametrize("one, same, other, text", CASES, ids=IDS)
def test_records_compare_by_class_and_fields(one, same, other, text):
    assert one == same and not one != same
    assert one is not same
    assert repr(one) == repr(same) == text
    if other is not None:
        assert one != other and not one == other
    if not isinstance(one, EigenResult):  # an array is unhashable, so its record is too
        assert hash(one) == hash(same)
    assert one.__eq__(object()) is NotImplemented
    assert one != tuple(getattr(one, f) for f in FIELDS[type(one)])


def test_records_of_different_classes_are_unequal():
    for a in SPECS:
        for b in SPECS:
            assert (a == b) is (a is b)
            assert (a != b) is (a is not b)
    assert ALL == AllKeys() and hash(ALL) == hash(AllKeys())
    assert KeyRange("a", "b") != KeyPrefix("a")
    assert len({KeySet(["a"]), KeySet(["a"]), KeyPrefix("a"), KeyRange("a", "a")}) == 3
    assert ARITH == aakit.get_semiring("arith") and hash(ARITH) == hash(aakit.get_semiring("arith"))
    assert ARITH != aakit.MAXPLUS


@pytest.mark.parametrize("cls", list(FIELDS), ids=[cls.__name__ for cls in FIELDS])
def test_records_match_by_position(cls):
    assert cls.__match_args__ == FIELDS[cls]


@pytest.mark.parametrize("build", [
    lambda: Semiring("s", _plus, _times, 0.0, 1.0),  # a field short
    lambda: Semiring("s", _plus, _times, 0.0, 1.0, True, "extra"),
    lambda: DenseProjection((), (), (), cells=()),  # a field twice
    lambda: DenseProjection((), (), colour=()),
    lambda: EigenResult(2.0, _VEC, iterations=3),
    lambda: AllKeys("a"),
    lambda: KeyRange("a"),
    lambda: KeyPrefix(prefix="a", lo="a"),
], ids=["short", "long", "twice", "unknown", "keyword-short", "all", "range", "prefix"])
def test_records_refuse_a_wrong_set_of_fields(build):
    with pytest.raises(TypeError):
        build()


def test_records_build_from_fields_in_any_order_by_keyword():
    assert EigenResult(residual=0.0, iterations=3, eigenvector=_VEC, eigenvalue=2.0) == CASES[-1][0]
    assert DenseProjection(("a",), cells=((1.0,),), col_order=("b",)) == CASES[-2][0]


def test_match_statement_unpacks_specs():
    def describe(spec):
        match spec:
            case KeyRange(lo, hi):
                return f"range {lo}..{hi}"
            case KeyPrefix(p):
                return f"prefix {p}"
            case KeySet(keys):
                return f"set {','.join(keys)}"
            case AllKeys():
                return "all"
        return "other"

    assert [describe(s) for s in SPECS] == ["all", "set a,b", "range a..b", "prefix a"]
    assert describe(object()) == "other"


@pytest.mark.parametrize("one", [case[0] for case in CASES], ids=IDS)
def test_records_refuse_setting_and_deleting(one):
    for name in FIELDS[type(one)] or ("anything",):
        before = getattr(one, name, None)
        with pytest.raises(AttributeError):
            setattr(one, name, "x")
        with pytest.raises(AttributeError):
            delattr(one, name)
        assert getattr(one, name, None) is before
    with pytest.raises(AttributeError):
        one.new_field = 1


@pytest.mark.parametrize("spec", SPECS, ids=[type(s).__name__ for s in SPECS])
def test_specs_pickle_and_deepcopy(spec):
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), copy.copy(spec)):
        assert type(clone) is type(spec)
        assert clone == spec and hash(clone) == hash(spec) and repr(clone) == repr(spec)
        assert [clone.matches(k) for k in ("a", "b", "c")] == [spec.matches(k) for k in ("a", "b", "c")]
        assert clone.select(("a", "ab", "b", "c")) == spec.select(("a", "ab", "b", "c"))
        with pytest.raises(AttributeError):
            setattr(clone, FIELDS[type(spec)][0] if FIELDS[type(spec)] else "x", "y")


def test_key_set_members_stay_out_of_equality_and_repr():
    spec = KeySet(["b", "a"])
    assert spec.matches.__self__ == frozenset({"a", "b"})
    assert "matches" not in repr(spec)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.matches("a") and not clone.matches("c")
    assert clone.matches.__self__ == spec.matches.__self__


def test_analysis_records_pickle_and_every_record_deepcopies():
    for one, *_ in CASES:
        for clone in (copy.deepcopy(one), pickle.loads(pickle.dumps(one))):
            assert type(clone) is type(one) and clone == one and repr(clone) == repr(one)
    # The built-in semirings' operations are module-level functions, which pickle by name.
    a = AssociativeArray({("h", "k1"): -1.0, ("i", "k1"): 2.0, ("i", "k2"): 3.0})
    b = AssociativeArray({("k1", "j"): 5.0, ("k2", "j"): 7.0, ("k2", "m"): 1.5})
    for sr in aakit.SEMIRINGS.values():
        for clone in (copy.deepcopy(sr), pickle.loads(pickle.dumps(sr))):
            assert clone == sr and repr(clone) == repr(sr)
            assert arrayprod(a, b, clone) == arrayprod(a, b, sr)


def test_package_import_loads_neither_dataclasses_inspect_nor_csv():
    """A fresh isolated interpreter imports the package and its CLI without them.

    Only modules the import adds count.  The child runs with ``-S``: a
    module that ``site`` (or a ``.pth`` file it runs) has already loaded is
    never added by the import, so under ``site`` it could hide a regression.
    """
    src = str(Path(aakit.__file__).resolve().parent.parent)
    child = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import aakit, aakit.cli\n"
        "assert aakit.__file__.startswith(sys.argv[1]), aakit.__file__\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", child, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "aakit.cli" in added
    assert not added & {"dataclasses", "inspect", "csv"}, sorted(added)
