"""Name-only stub: rows are built by :class:`repro.core.hops.HopKernel`.

``perfbench/layers.py`` still imports :class:`RoutingPlanCache` and
patches these three attributes by name; the benchmark-harness change
(ROADMAP item 1) deletes this module.
"""


class RoutingPlanCache:
    """Never built; only its attribute names remain."""

    def central_plan(self, *key):
        raise NotImplementedError

    entry = injection_plan = central_plan
