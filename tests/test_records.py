"""Public record types: immutability, equality, hashing and validation."""
import math

import numpy as np
import pytest

from coorbital.catalog import SpecialPoint, SpecialPointCatalog
from coorbital.cli import RunManifest
from coorbital.curve import CurvePoint
from coorbital.exceptions import AngleDomainError, MassDomainError
from coorbital.kernel import KernelProfile
from coorbital.model import (
    AngleConfig,
    MassMatrix,
    MassVector,
    NullSpaceResult,
    SymmetricConfig,
)
from coorbital.rootfind import Bracket, RootResult
from coorbital.theorems import CaseSolution, Certificate, MassCondition, RejectedBranch

TWO_PI = 2.0 * math.pi
QUARTER = math.pi / 2.0

# (type, field values, validation error, field values it must reject);
# the validating types get ints, which they must store as floats
RECORDS = [
    (Bracket, (0.0, 1.0, -1.0, 1.0), None, None),
    (RootResult, (0.5, 0.0, 3, True), None, None),
    (KernelProfile, (1.9, TWO_PI - 1.9, (1.0, 2.0, 3.0)), None, None),
    (CurvePoint, (0.7, 0.5, TWO_PI - 1.9, "D1", 1.0, None, 2.0, False), None, None),
    (SpecialPoint, ("A", 0.7, 0.5, 0.7, 0.5, 0.0, False, None, None, "note"), None, None),
    (SpecialPointCatalog, ((),), None, None),
    (RejectedBranch, ("b", "sign", {"min": 0.5}), None, None),
    (MassCondition, (("mu1 = mu4",), (), None), None, None),
    (Certificate, (1e-12, None, 0, "residual"), None, None),
    (CaseSolution, ("T36", None, None, False, Certificate(None, 0.5, 9, "grid"), ()), None, None),
    (RunManifest, ("theorem", {"tag": "T36"}, {"gate": 1e-10}), None, None),
    (AngleConfig, ((1, 2, TWO_PI - 3),), AngleDomainError, ((QUARTER, QUARTER, QUARTER, math.nan),)),
    (MassVector, ((1, 2),), MassDomainError, ((1.0, True),)),
    (SymmetricConfig, (1, 2, TWO_PI - 4), AngleDomainError, (-1.0, 2.0, TWO_PI - 0.0)),
    (MassMatrix, (np.eye(4),), None, None),
    (NullSpaceResult, (2, np.eye(4), None), None, None),
]
BY_IDENTITY = (MassMatrix, NullSpaceResult)


@pytest.mark.parametrize(
    "cls, values, error, bad", RECORDS, ids=[entry[0].__name__ for entry in RECORDS]
)
def test_record_contract(cls, values, error, bad):
    a, b = cls(*values), cls(*values)
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    if cls in BY_IDENTITY:
        # an array field has no single truth value, so no field is compared
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2
    else:
        assert a == b and not a != b
        if any(isinstance(v, dict) for v in values):
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
    if error is not None:
        cells = [x for v in a for x in (v if isinstance(v, tuple) else (v,))]
        assert all(type(x) is float for x in cells)
        with pytest.raises(error):
            cls(*bad)
        # _replace builds through the validating constructor too
        with pytest.raises(error):
            a._replace(**dict(zip(a._fields, bad)))
