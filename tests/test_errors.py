"""Every package exception survives pickling, as a chain worker returns it."""

import inspect
import pickle

import pytest

from windcal import errors

# constructor arguments of one instance of every exception class in errors.py
EXAMPLES = {
    errors.WindcalError: ("run failed",),
    errors.DomainError: ("n must be >= 1, got 0",),
    errors.DataValidationError: ("observed panel has no data",),
    errors.NumericalError: ("non-finite log-posterior at sampler start",),
    errors.RuleError: (("xi_low", "xi_high"), "must satisfy -inf < xi_low < xi_high <= 0"),
}


def test_every_class_has_an_example():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, BaseException) and cls.__module__ == errors.__name__}
    assert classes == EXAMPLES.keys()


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    exc = cls(*EXAMPLES[cls])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert getattr(back, "fields", None) == getattr(exc, "fields", None)
