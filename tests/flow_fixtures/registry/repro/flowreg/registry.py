"""Fixture registries: string-table backends + decorator policies."""

#: Lazily imported backends, name -> "module:Class" (the string-table
#: registry shape the flow analysis links structurally).
_BACKENDS = {
    "alpha": "repro.flowreg.impl:ImplA",
    "beta": "repro.flowreg.impl:ImplB",
}

_POLICIES = {}


def load(name):
    """String-table consumer: flow links this to ImplA/ImplB."""
    target = _BACKENDS[name]
    return target


def register(name):
    """Decorator registry (the ``make_policy`` resolver's counterpart)."""
    def deco(cls):
        _POLICIES[name] = cls
        return cls
    return deco


def make_policy(name):
    return _POLICIES[name]()
