"""The four-category taxonomy of §3."""

from __future__ import annotations

import enum


class Category(enum.Enum):
    """Impact of ZNS adoption on a piece of SSD research."""

    SIMPLIFIED = "Simpl"
    APPROACH = "Appr"
    RESULTS = "Res"
    ORTHOGONAL = "Orth"


CATEGORY_DESCRIPTIONS: dict[Category, str] = {
    Category.SIMPLIFIED: (
        "The paper's main problem is solved or simplified with ZNS SSDs "
        "(e.g. building FTLs, improving garbage collection)."
    ),
    Category.APPROACH: (
        "The paper's approach to solving the problem may change with ZNS "
        "(e.g. the system implementation would differ)."
    ),
    Category.RESULTS: (
        "The results of the research or evaluation may change with ZNS "
        "(e.g. performance numbers, measurement-study findings)."
    ),
    Category.ORTHOGONAL: (
        "The problem addressed is orthogonal to ZNS "
        "(e.g. low-level flash security techniques)."
    ),
}


#: Topic tags -> the category the paper's §3 discussion assigns that kind
#: of work. Used both to build the corpus consistently and as a
#: rule-based classifier for new records.
TOPIC_CATEGORIES: dict[str, Category] = {
    # Simplified/solved: the FTL tax itself.
    "gc-interference": Category.SIMPLIFIED,
    "write-amplification": Category.SIMPLIFIED,
    "ftl-design": Category.SIMPLIFIED,
    "ftl-reverse-engineering": Category.SIMPLIFIED,
    "flash-emulation": Category.SIMPLIFIED,
    "performance-predictability": Category.SIMPLIFIED,
    # Approach changes: systems with a significant flash component.
    "flash-cache": Category.APPROACH,
    "kv-store-design": Category.APPROACH,
    "flash-array": Category.APPROACH,
    "latency-exploitation": Category.APPROACH,
    # Results change: evaluations and measurement studies.
    "kv-store-evaluation": Category.RESULTS,
    "filesystem": Category.RESULTS,
    "reliability-study": Category.RESULTS,
    "performance-study": Category.RESULTS,
    "application-tuning": Category.RESULTS,
    # Orthogonal.
    "flash-security": Category.ORTHOGONAL,
    "encoding": Category.ORTHOGONAL,
    "deduplication": Category.ORTHOGONAL,
}


__all__ = ["CATEGORY_DESCRIPTIONS", "Category", "TOPIC_CATEGORIES"]
