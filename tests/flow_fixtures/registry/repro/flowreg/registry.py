"""Fixture registry: decorator-registered policies."""

_POLICIES = {}


def register(name):
    """Decorator registry (the ``make_policy`` resolver's counterpart)."""
    def deco(cls):
        _POLICIES[name] = cls
        return cls
    return deco


def make_policy(name):
    return _POLICIES[name]()
