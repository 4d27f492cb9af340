"""Workload generators: address streams, object lifetimes, tenant bursts."""

from repro.workloads.lifetime import LifetimeClass, ObjectEvent, ObjectLifetimeWorkload
from repro.workloads.multitenant import BurstyTenant, TenantDemandEvent, demand_trace
from repro.workloads.synthetic import (
    fill_then_churn,
    hot_cold_array,
    hot_cold_stream,
    read_write_mix,
    sequential_stream,
    uniform_stream,
    zipfian_stream,
)
from repro.workloads.traces import TraceOp, TraceRecord, replay_trace, synthesize_trace

__all__ = [
    "BurstyTenant",
    "LifetimeClass",
    "ObjectEvent",
    "ObjectLifetimeWorkload",
    "TenantDemandEvent",
    "TraceOp",
    "TraceRecord",
    "demand_trace",
    "fill_then_churn",
    "hot_cold_array",
    "hot_cold_stream",
    "read_write_mix",
    "replay_trace",
    "sequential_stream",
    "synthesize_trace",
    "uniform_stream",
    "zipfian_stream",
]
