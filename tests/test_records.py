"""The six record types: keyword construction, repr, read-only fields, validation and equality."""

import json

import pytest

from entnorm.bounds import BoundEnvelope
from entnorm.cli import main
from entnorm.curves import InflectionPoint, TangentPoint
from entnorm.measures import Channel, JointDist
from entnorm.oracle import VerifyReport
from entnorm.simplex import DomainError

# (record, keyword arguments, repr, keyword arguments it refuses or None)
RECORDS = [
    (BoundEnvelope, {"lower": 1.0, "upper": None}, "BoundEnvelope(lower=1.0, upper=None)",
     {"lower": 2.0, "upper": 1.0}),
    (JointDist, {"py": [1.0], "rows": [[0.5, 0.5]]}, "JointDist(py=array([1.]), rows=array([[0.5, 0.5]]))",
     {"py": [1.0], "rows": [[0.5, 0.5], [1.0, 0.0]]}),
    (Channel, {"transitions": [[1.0, 0.0]]}, "Channel(transitions=array([[1., 0.]]))", {"transitions": [[2.0]]}),
    (TangentPoint, {"n": 8, "alpha": 2.0, "p": 0.1, "h": 1.5, "norm": 0.5},
     "TangentPoint(n=8, alpha=2.0, p=0.1, h=1.5, norm=0.5)", None),
    (InflectionPoint, {"n": 8, "alpha": 2.0, "h": 1.9, "p": 0.12}, "InflectionPoint(n=8, alpha=2.0, h=1.9, p=0.12)",
     None),
    (VerifyReport, {"samples": 5, "violations_lower": 0, "violations_upper": 1, "max_excess": 2e-9, "seed": 7},
     "VerifyReport(samples=5, violations_lower=0, violations_upper=1, max_excess=2e-09, seed=7)", None),
]


@pytest.mark.parametrize("record, kwargs, text, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record(record, kwargs, text, bad):
    rec = record(**kwargs)
    assert repr(rec) == text
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):  # read-only fields
        setattr(rec, field, getattr(rec, field))
    if bad is not None:
        with pytest.raises(DomainError):
            record(**bad)
        with pytest.raises(DomainError):
            rec._replace(**bad)
    if record in (JointDist, Channel):  # == on array fields has no single truth value: identity
        twin = record(**kwargs)
        assert rec == rec and rec != twin and len({rec, twin}) == 2
    else:
        assert rec == record(**kwargs)


def test_verify_report_keys(capsys):
    assert main(["verify", "--n", "8", "--alpha", "2", "--samples", "10"]) == 0
    keys = ["max_excess", "samples", "seed", "violations_lower", "violations_upper"]
    assert sorted(json.loads(capsys.readouterr().out)) == keys
