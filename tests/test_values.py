"""The immutable value classes, the public surface, and what importing the CLI loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import logseries
from logseries import (
    CompositaeTable,
    IntSeries,
    LogSuperposition,
    RatSeries,
    ScanResult,
    SequenceSpec,
    WitnessReport,
)
from compositae_oracles import PartMultiset

ROOT = Path(__file__).resolve().parent.parent

G3 = (Fraction(1), Fraction(3, 2), Fraction(7, 3))

# (class, keyword arguments of a valid instance, whether it is hashable,
#  [(bad keyword arguments, exception, message pattern), ...])
CASES = [
    (
        IntSeries,
        {"order": 3, "coeffs": {1: 1, 3: -2}},
        False,
        [
            ({"order": 0}, ValueError, "IntSeries order must be a positive integer"),
            ({"order": 3, "coeffs": {4: 1}}, ValueError, r"coefficient index 4 outside \[1, 3\]"),
            ({"order": 3, "coeffs": {1: 0.5}}, TypeError, "is not an integer"),
        ],
    ),
    (
        RatSeries,
        {"order": 2, "coeffs": {0: Fraction(1, 2), 2: Fraction(-3)}},
        False,
        [
            ({"order": -1}, ValueError, "RatSeries order must be >= 0"),
            ({"order": 2, "coeffs": {3: 1}}, ValueError, r"coefficient index 3 outside \[0, 2\]"),
        ],
    ),
    (
        CompositaeTable,
        {"order": 2, "rows": ((1,), (1, 1))},
        True,
        [
            ({"order": 0, "rows": ()}, ValueError, "CompositaeTable order must be positive"),
            ({"order": 2, "rows": ((1,), (1,))}, ValueError, "rows must form a triangle"),
        ],
    ),
    (
        PartMultiset,
        {"parts": (1, 2, 2)},
        True,
        [
            ({"parts": ()}, ValueError, "a part multiset must be non-empty"),
            ({"parts": (1, 0)}, ValueError, "all parts must be positive"),
        ],
    ),
    (
        SequenceSpec,
        {"kind": "fib-gf", "order": 5},
        True,
        [
            ({"kind": "ones", "order": 0}, ValueError, "sequence order must be a positive integer"),
            ({"kind": "squares", "order": 5}, ValueError, "unknown sequence kind 'squares'"),
        ],
    ),
    (
        LogSuperposition,
        {"order": 3, "g": G3, "ng": (1, 3, 7), "h": (1, 2, 4)},
        True,
        [],
    ),
    (
        WitnessReport,
        {
            "n": 341,
            "test": "fermat2",
            "residue": 0,
            "is_prime_actual": False,
            "note": "",
        },
        True,
        [
            (
                {"n": 9, "test": "fermat2", "residue": 9, "is_prime_actual": False},
                ValueError,
                r"residue 9 outside \[0, 9\)",
            ),
        ],
    ),
    (
        ScanResult,
        {
            "lo": 2,
            "hi": 2000,
            "test": "fermat2",
            "pseudoprimes": (341, 561),
            "primes_checked": 303,
        },
        True,
        [],
    ),
]


@pytest.mark.parametrize("cls, kwargs, hashable, errors", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_contract(cls, kwargs, hashable, errors):
    obj = cls(**kwargs)
    twin = cls(*kwargs.values())
    assert obj == twin and not obj != twin

    # same field values, another class: never equal, as with dataclasses
    other_cls = type("Other" + cls.__name__, (cls,), {"__slots__": ()})
    other = other_cls(**kwargs)
    assert obj != other and other != obj

    if hashable:
        assert hash(obj) == hash(twin)
        assert len({obj, twin}) == 1
    else:
        with pytest.raises(TypeError):
            hash(obj)

    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == twin
    if cls is ScanResult:  # a derived, read-only count
        assert obj.composites_checked == obj.hi - obj.lo + 1 - obj.primes_checked == 1696
        with pytest.raises(AttributeError):
            obj.composites_checked = 0

    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in kwargs)
    assert repr(obj) == f"{cls.__name__}({fields})"

    for clone in (
        pickle.loads(pickle.dumps(obj)),
        pickle.loads(pickle.dumps(obj, protocol=0)),
        copy.copy(obj),
        copy.deepcopy(obj),
    ):
        assert type(clone) is cls and clone == obj

    for bad, exc, message in errors:
        with pytest.raises(exc, match=message):
            cls(**bad)


def test_value_class_defaults():
    assert IntSeries(2) == IntSeries(2, {})
    assert RatSeries(0).coeffs == {}
    # each default is a fresh dict, never one shared between instances
    assert IntSeries(2).coeffs is not IntSeries(2).coeffs
    assert WitnessReport(4, "fermat2", 2, False).note == ""


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site and its .pth files, which may import typing themselves, out of the result
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import logseries.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_public_surface_resolves_and_ships_no_series_algebra():
    assert len(logseries.__all__) == len(set(logseries.__all__))
    for name in logseries.__all__:
        assert getattr(logseries, name) is not None, name
    # the slow cross-check routes are test oracles (tests/series_oracles.py)
    for name in (
        "series_add",
        "series_mul",
        "series_derivative",
        "geometric_inverse",
        "compose_truncated",
        "derivative_identity_residual",
        "is_integral",
    ):
        assert not hasattr(logseries, name), name
