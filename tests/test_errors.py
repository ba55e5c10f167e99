import inspect
import pickle

import pytest

from curbmap import errors


def _error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == errors.__name__]


def _instance(cls):
    """An instance whose every constructor argument is a distinct string."""
    try:
        params = inspect.signature(cls).parameters
    except ValueError:   # Exception's own constructor: one message
        params = ["message"]
    return cls(*(f"{cls.__name__}.{param}" for param in params))


def _round_trip(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err) and back.args == err.args
    assert vars(back).keys() == vars(err).keys()
    return back


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_pickles(cls):
    err = _instance(cls)
    assert vars(_round_trip(err)) == vars(err)


def test_pipeline_error_carries_its_cause_intact():
    err = errors.PipelineError("decompose", errors.ChannelMissingError("stick"))
    back = _round_trip(err)
    assert back.stage == "decompose"
    assert str(back.cause) == "required channel 'stick' is missing"
    assert back.cause.name == "stick"
