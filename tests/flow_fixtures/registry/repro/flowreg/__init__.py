"""Flow-analysis fixture package: registry indirection + bound methods.

A miniature simulator shaped like the real tree so the call-graph tests
in ``tests/test_flow_analysis.py`` can pin resolution behaviour without
depending on ``src`` internals: a string-table backend registry
(``module:Class`` values), a decorator policy registry (like
``repro.policies.registry``), a stored bound-method callback, and
callbacks scheduled onto the engine.
"""
