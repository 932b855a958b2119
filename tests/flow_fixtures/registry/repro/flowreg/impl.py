"""Fixture decorator-registered policy."""

from .registry import register


@register("care")
class CarePolicy:
    __slots__ = ("hits",)

    def __init__(self):
        self.hits = 0

    def on_hit(self):
        self.hits += 1
        return self.hits
