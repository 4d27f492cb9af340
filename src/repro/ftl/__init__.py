"""Conventional (block-interface) SSD: page-mapped FTL with garbage collection.

This package implements the device the paper argues we should stop
building systems on: a flash translation layer that exposes a flat,
randomly-writable logical block address space over NAND by maintaining a
page-granularity logical-to-physical map, performing garbage collection
into overprovisioned spare capacity, and wear-leveling erases.
"""

from repro.ftl.device import ConventionalSSD
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.ftl.gc import (
    CostBenefitPolicy,
    FifoPolicy,
    GreedyPolicy,
    VictimPolicy,
    make_policy,
)
from repro.ftl.mapping import FullPageMap

__all__ = [
    "ConventionalFTL",
    "ConventionalSSD",
    "CostBenefitPolicy",
    "FTLConfig",
    "FifoPolicy",
    "FullPageMap",
    "GreedyPolicy",
    "VictimPolicy",
    "make_policy",
]
