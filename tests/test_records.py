"""The contract of the four result records: EvalResult, SeriesReport,
KappaQuery and the CLI's OutputRecord.

Each is an immutable record: its fields, their order and defaults, the
OutOfRangeError messages of its validation, its repr, and equality and
hash by fields are what callers rely on, whatever class implements it.
Each is also a tuple of its fields (the last two tests), built and
rebuilt (``_make``, ``_replace``) through the same validation.
"""

import pytest

from stablekappa import EvalResult, KappaQuery, MethodChoice, OutOfRangeError, SeriesReport
from stablekappa.cli import OutputRecord

FIELDS = {
    EvalResult: ("value", "abs_error_bound", "method", "terms_or_nodes_used"),
    SeriesReport: ("value", "terms_first_series", "terms_second_series", "tail_bound",
                   "noise_bound"),
    KappaQuery: ("gamma", "beta"),
    OutputRecord: ("alpha", "rho", "beta", "gamma", "method", "value", "abs_error_bound",
                   "terms_or_nodes_used", "status"),
}

# one valid set of arguments per record, and its repr
RECORDS = {
    EvalResult: ((1.0, 0.0, MethodChoice.SERIES, 3),
                 "EvalResult(value=1.0, abs_error_bound=0.0, "
                 "method=<MethodChoice.SERIES: 'series'>, terms_or_nodes_used=3)"),
    SeriesReport: ((0.5, 2, 1, 1e-12, 3e-16),
                   "SeriesReport(value=0.5, terms_first_series=2, terms_second_series=1, "
                   "tail_bound=1e-12, noise_bound=3e-16)"),
    KappaQuery: ((2.0, 0.5), "KappaQuery(gamma=2.0, beta=0.5)"),
    OutputRecord: ((1.5, 0.5, 0.3, None, "series", -0.25, 1e-11, 12, "ok"),
                   "OutputRecord(alpha=1.5, rho=0.5, beta=0.3, gamma=None, method='series', "
                   "value=-0.25, abs_error_bound=1e-11, terms_or_nodes_used=12, status='ok')"),
}


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in FIELDS[type(record)]}


@pytest.mark.parametrize("cls", list(RECORDS))
def test_fields_in_order_and_by_keyword(cls):
    args, _ = RECORDS[cls]
    record = cls(*args)
    assert tuple(_fields(record).values()) == args
    assert cls(**dict(zip(FIELDS[cls], args))) == record


def test_series_report_noise_bound_defaults_to_zero():
    assert SeriesReport(0.5, 2, 1, 1e-12).noise_bound == 0.0
    assert SeriesReport(0.5, 2, 1, 1e-12) == SeriesReport(0.5, 2, 1, 1e-12, 0.0)


@pytest.mark.parametrize("cls", list(RECORDS))
def test_repr_is_pinned(cls):
    args, text = RECORDS[cls]
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls", list(RECORDS))
def test_records_are_immutable(cls):
    args, _ = RECORDS[cls]
    record = cls(*args)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, args[0])
    assert tuple(_fields(record).values()) == args


@pytest.mark.parametrize("cls", list(RECORDS))
def test_equality_and_hash_by_fields(cls):
    args, _ = RECORDS[cls]
    record, twin = cls(*args), cls(*args)
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert {record: 1}[twin] == 1
    changed = cls(*args[:-1], "other" if isinstance(args[-1], str) else args[-1] + 1)
    assert record != changed


@pytest.mark.parametrize("args,message", [
    ((1.0, -1.0, MethodChoice.SERIES, 3), "abs_error_bound must be finite and nonnegative"),
    ((1.0, float("inf"), MethodChoice.SERIES, 3),
     "abs_error_bound must be finite and nonnegative"),
    ((1.0, float("nan"), MethodChoice.SERIES, 3),
     "abs_error_bound must be finite and nonnegative"),
    ((1.0, 0.0, MethodChoice.SERIES, -1), "terms_or_nodes_used must be nonnegative"),
    # the bound is checked first
    ((1.0, -1.0, MethodChoice.SERIES, -1), "abs_error_bound must be finite and nonnegative"),
])
def test_eval_result_refusals(args, message):
    with pytest.raises(OutOfRangeError) as info:
        EvalResult(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("args,message", [
    ((0.5, 2, 1, -1e-12), "series bounds must be nonnegative"),
    ((0.5, 2, 1, 0.0, -1e-16), "series bounds must be nonnegative"),
    ((0.5, -1, 1, 0.0), "term counts must be nonnegative"),
    ((0.5, 2, -1, 0.0), "term counts must be nonnegative"),
])
def test_series_report_refusals(args, message):
    with pytest.raises(OutOfRangeError) as info:
        SeriesReport(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("args,message", [
    ((0.0, 0.5), "gamma must be positive, got 0.0"),
    ((float("inf"), 0.5), "gamma must be positive, got inf"),
    ((float("nan"), 0.5), "gamma must be positive, got nan"),
    ((1.0, -0.1), "beta must be nonnegative, got -0.1"),
    ((1.0, float("inf")), "beta must be nonnegative, got inf"),
    ((-1.0, -1.0), "gamma must be positive, got -1.0"),
])
def test_kappa_query_refusals(args, message):
    with pytest.raises(OutOfRangeError) as info:
        KappaQuery(*args)
    assert str(info.value) == message


def test_kappa_query_accepts_beta_zero():
    assert KappaQuery(1.0, 0.0).beta == 0.0


@pytest.mark.parametrize("cls", list(RECORDS))
def test_records_are_tuples_of_their_fields(cls):
    args, _ = RECORDS[cls]
    record = cls(*args)
    assert record == args and tuple(record) == args
    assert record._asdict() == dict(zip(FIELDS[cls], args))
    assert record._replace() == record and type(record._replace()) is cls
    assert cls._make(args) == record


@pytest.mark.parametrize("record,change", [
    (EvalResult(1.0, 0.0, MethodChoice.SERIES, 3), {"abs_error_bound": -1.0}),
    (SeriesReport(0.5, 2, 1, 1e-12), {"terms_second_series": -1}),
    (KappaQuery(2.0, 0.5), {"gamma": 0.0}),
])
def test_replace_validates_like_the_constructor(record, change):
    with pytest.raises(OutOfRangeError):
        record._replace(**change)
    with pytest.raises(OutOfRangeError):
        type(record)._make({**record._asdict(), **change}.values())
