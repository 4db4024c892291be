import inspect

import trendmax


def public_callables():
    for name in dir(trendmax):
        obj = getattr(trendmax, name)
        if not name.startswith("_") and callable(obj):
            yield name, obj


def test_every_public_callable_has_its_own_docstring():
    # a dataclass or NamedTuple without a docstring gets a generated
    # "Name(field, ...)" one, and a subclass would inherit its base's
    missing = []
    for name, obj in public_callables():
        doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
        if not doc or not doc.strip() or doc.startswith(f"{obj.__name__}("):
            missing.append(name)
    assert missing == []
    assert {"trend_statistic", "load_scenarios", "validate_battery", "RobustStatistic"} <= dict(public_callables()).keys()
