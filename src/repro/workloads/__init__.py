"""Workload generators: address streams, object lifetimes, tenant bursts."""

from repro.workloads.lifetime import LifetimeClass, ObjectEvent, ObjectLifetimeWorkload
from repro.workloads.multitenant import BurstyTenant, TenantDemandEvent, demand_trace
from repro.workloads.synthetic import (
    fill_then_churn,
    hot_cold_array,
    hot_cold_stream,
    uniform_stream,
    zipfian_stream,
)

__all__ = [
    "BurstyTenant",
    "LifetimeClass",
    "ObjectEvent",
    "ObjectLifetimeWorkload",
    "TenantDemandEvent",
    "demand_trace",
    "fill_then_churn",
    "hot_cold_array",
    "hot_cold_stream",
    "uniform_stream",
    "zipfian_stream",
]
