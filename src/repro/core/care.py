"""CARE — the Concurrency-Aware cache management framework (Section V).

CARE augments SHiP++-style signature learning with the PMC cost signal:

* every LLC block carries a 2-bit **Eviction Priority Value (EPV)**;
  0 = keep longest, 3 = evict first,
* the **SHT** learns each signature's reuse (RC) and miss cost (PD) from
  sampled sets,
* the **SBP** classifies each access as High/Moderate/Low-Reuse and
  High/Moderate/Low-Cost, driving the Table IV insertion & hit-promotion
  policies,
* the served miss's measured PMC is quantized to a 2-bit **PMCS** by the
  **DTRM**, stored with sampled blocks, and trains PD on eviction,
* prefetched blocks get the Section V-E special handling; writebacks insert
  at EPV 3 and never promote (Section V-D).

The constructor flags ``use_reuse`` / ``use_cost`` / ``adaptive_thresholds``
exist for the ablation benchmarks: disabling the cost path yields a
locality-only SHiP++-like scheme, disabling the reuse path yields a
concurrency-only scheme, and freezing DTRM isolates its contribution.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .dtrm import DTRM, DTRMConfig
from .sht import CostClass, ReuseClass, SignatureHistoryTable
from .signatures import pc_signature
from ..policies.base import PolicyAccess, ReplacementPolicy
from ..policies.registry import register
from ..policies.sampling import choose_sampled_sets
from ..sim.request import AccessType

_PREFETCH = AccessType.PREFETCH
EPV_MAX = 3          # 2-bit eviction priority value
_NO_SIG = -1         # sampled-set slot holds no trainable signature


class CAREStats:
    """Decision counters for analysis / ablation reporting."""

    def __init__(self) -> None:
        self.insert_high_reuse = 0
        self.insert_low_reuse = 0
        self.insert_moderate_low_cost = 0
        self.insert_moderate_high_cost = 0
        self.insert_moderate_mid = 0
        self.insert_writeback = 0
        self.prefetch_first_demotions = 0
        self.epv_aging_rounds = 0


@register("care")
class CAREPolicy(ReplacementPolicy):
    """The paper's framework, driven by PMC."""

    def __init__(self, sets: int, ways: int, seed: int = 0,
                 n_cores: int = 1,
                 sampled_target: int = 64,
                 use_reuse: bool = True,
                 use_cost: bool = True,
                 adaptive_thresholds: bool = True,
                 dtrm_period: Optional[int] = None,
                 dtrm_config: Optional[DTRMConfig] = None) -> None:
        super().__init__(sets, ways, seed)
        self.use_reuse = use_reuse
        self.use_cost = use_cost
        self.sht = SignatureHistoryTable()
        # Paper: one period = 16K misses = half the LLC's blocks (1-core).
        period = dtrm_period if dtrm_period is not None else max(
            64, (sets * ways) // 2)
        self.dtrm = DTRM(period=period, config=dtrm_config,
                         adaptive=adaptive_thresholds)
        self.stats = CAREStats()

        self._epv: List[List[int]] = [[EPV_MAX] * ways for _ in range(sets)]
        self.sampled = choose_sampled_sets(sets, sampled_target)
        self._sig: Dict[int, List[int]] = {
            s: [_NO_SIG] * ways for s in self.sampled}
        self._r: Dict[int, List[bool]] = {
            s: [False] * ways for s in self.sampled}
        self._pmcs: Dict[int, List[int]] = {
            s: [0] * ways for s in self.sampled}

    # ------------------------------------------------------------------
    # Cost signal — M-CARE overrides this single hook (Section VI).
    # ------------------------------------------------------------------
    def cost_signal(self, access: PolicyAccess) -> float:
        return access.pmc

    # ------------------------------------------------------------------
    # Victim selection (Section V-D)
    # ------------------------------------------------------------------
    def find_victim(self, set_idx: int, blocks, access: PolicyAccess) -> int:
        epv = self._epv[set_idx]
        while True:
            candidates = [w for w in range(self.ways) if epv[w] >= EPV_MAX]
            if candidates:
                # Paper: random choice among EPV-3 candidates performs the
                # same as recency order at far lower hardware cost.
                return self.rng.choice(candidates)
            for w in range(self.ways):
                epv[w] += 1
            self.stats.epv_aging_rounds += 1

    # ------------------------------------------------------------------
    # Hit-promotion policy (Table IV + Section V-E)
    # ------------------------------------------------------------------
    def on_hit(self, set_idx: int, way: int, blocks, access: PolicyAccess) -> None:
        if access.is_writeback:
            return                          # writebacks never promote
        epv = self._epv[set_idx]
        if access.rtype == _PREFETCH:
            if access.prefetch:
                # A prefetched, still-undemanded block touched again only by
                # prefetches: leave its EPV alone (Section V-E).
                return
            # A prefetch re-touching an already-demanded block: reuse signal.
            epv[way] = 0
        elif access.prefetch:
            # First demand touch of a prefetched block: usually single-use.
            epv[way] = EPV_MAX
            self.stats.prefetch_first_demotions += 1
        else:
            sig = pc_signature(access.pc, prefetch=False)
            reuse = (self.sht.reuse_class(sig)
                     if self.use_reuse else ReuseClass.MODERATE)
            if reuse == ReuseClass.LOW:
                if epv[way] > 0:
                    epv[way] -= 1           # conservative gradual decrement
            else:
                epv[way] = 0
        self._train_hit(set_idx, way, access)

    def _train_hit(self, set_idx: int, way: int, access: PolicyAccess) -> None:
        if set_idx not in self.sampled:
            return
        if access.rtype == _PREFETCH:
            return                          # only demand reuse trains RC
        sig = self._sig[set_idx][way]
        if sig == _NO_SIG:
            return
        if not self._r[set_idx][way]:
            self._r[set_idx][way] = True    # first re-reference
            self.sht.rc_increment(sig)

    # ------------------------------------------------------------------
    # Eviction training (Section V-B)
    # ------------------------------------------------------------------
    def on_evict(self, set_idx: int, way: int, blocks, access: PolicyAccess) -> None:
        if set_idx not in self.sampled:
            return
        sig = self._sig[set_idx][way]
        if sig == _NO_SIG:
            return
        if not self._r[set_idx][way]:
            self.sht.rc_decrement(sig)      # dead block: reuse confidence down
        pmcs = self._pmcs[set_idx][way]
        if pmcs == DTRM.PMCS_CHEAP:
            self.sht.pd_decrement(sig)
        elif pmcs == DTRM.PMCS_COSTLY:
            self.sht.pd_increment(sig)

    # ------------------------------------------------------------------
    # Insertion policy (Table IV)
    # ------------------------------------------------------------------
    def on_fill(self, set_idx: int, way: int, blocks, access: PolicyAccess) -> None:
        epv = self._epv[set_idx]
        if access.is_writeback:
            # Non-demand background request, rarely re-referenced.
            epv[way] = EPV_MAX
            self.stats.insert_writeback += 1
            if set_idx in self.sampled:
                self._sig[set_idx][way] = _NO_SIG
                self._r[set_idx][way] = False
                self._pmcs[set_idx][way] = 0
            return

        pmcs = self.dtrm.observe(self.cost_signal(access))
        sig = pc_signature(access.pc, prefetch=access.prefetch)
        reuse = (self.sht.reuse_class(sig)
                 if self.use_reuse else ReuseClass.MODERATE)
        cost = (self.sht.cost_class(sig)
                if self.use_cost else CostClass.MODERATE)

        if reuse == ReuseClass.HIGH:
            epv[way] = 0
            self.stats.insert_high_reuse += 1
        elif reuse == ReuseClass.LOW:
            epv[way] = EPV_MAX
            self.stats.insert_low_reuse += 1
        elif cost == CostClass.LOW:
            epv[way] = EPV_MAX
            self.stats.insert_moderate_low_cost += 1
        elif cost == CostClass.HIGH:
            epv[way] = 0
            self.stats.insert_moderate_high_cost += 1
        else:
            epv[way] = 2
            self.stats.insert_moderate_mid += 1

        if set_idx in self.sampled:
            self._sig[set_idx][way] = sig
            self._r[set_idx][way] = False
            self._pmcs[set_idx][way] = pmcs

    # ------------------------------------------------------------------
    # Introspection helpers (tests / examples)
    # ------------------------------------------------------------------
    def epv_of(self, set_idx: int, way: int) -> int:
        return self._epv[set_idx][way]


# ----------------------------------------------------------------------
# Ablation variants (DESIGN.md section 6), registered so the harness can
# sweep them by name like any other scheme.
# ----------------------------------------------------------------------

@register("care_locality")
class CARELocalityOnly(CAREPolicy):
    """CARE with the PMC/PD path disabled: pure signature-locality EPV."""

    def __init__(self, sets: int, ways: int, seed: int = 0, **kwargs) -> None:
        kwargs["use_cost"] = False
        super().__init__(sets, ways, seed=seed, **kwargs)


@register("care_concurrency")
class CAREConcurrencyOnly(CAREPolicy):
    """CARE with the RC/reuse path disabled: cost-only EPV decisions."""

    def __init__(self, sets: int, ways: int, seed: int = 0, **kwargs) -> None:
        kwargs["use_reuse"] = False
        super().__init__(sets, ways, seed=seed, **kwargs)


@register("care_static")
class CAREStaticThresholds(CAREPolicy):
    """CARE with DTRM adaptation frozen at the initial thresholds."""

    def __init__(self, sets: int, ways: int, seed: int = 0, **kwargs) -> None:
        kwargs["adaptive_thresholds"] = False
        super().__init__(sets, ways, seed=seed, **kwargs)
