"""zns-repro: a reproduction of "Don't Be a Blockhead" (HotOS '21).

The package rebuilds, from scratch, everything the paper's argument rests
on:

- :mod:`repro.flash` -- the NAND substrate (cells, pages, erasure blocks,
  planes/channels, timing, wear);
- :mod:`repro.ftl` -- the conventional SSD the paper wants retired
  (page-mapped FTL, garbage collection, overprovisioning, and the
  DRAM-less DFTL variant of footnote 1);
- :mod:`repro.zns` -- the ZNS SSD (zone state machine, append, simple
  copy, active-zone limits, thin FTL);
- :mod:`repro.block`, :mod:`repro.hostio`, :mod:`repro.placement` -- the
  host storage stack (block-on-ZNS translation, reclaim scheduling,
  active-zone budgeting, lifetime-hint placement);
- :mod:`repro.apps` -- applications held constant across interfaces (LSM
  KV store, flash caches);
- :mod:`repro.workloads`, :mod:`repro.sim` -- workload generation and
  the discrete-event kernel;
- :mod:`repro.cost`, :mod:`repro.survey` -- the economics and the Table 1
  corpus;
- :mod:`repro.experiments` -- one module per table/figure/claim, each
  exposing ``run(config: ExperimentConfig) -> ExperimentResult``;
- :mod:`repro.exec` -- the execution subsystem behind the ``zns-repro``
  CLI: process-pool fan-out (``--jobs``), a content-addressed result
  cache, and structured progress reporting;
- :mod:`repro.obs` -- measurement and telemetry: the one aggregation
  type (``MetricsFrame``, with ``OpCounter`` as its typed counter slice,
  where the NAND counts every flash op once under its cause), typed trace
  events published by every layer above, pluggable sinks, JSONL export
  (``--trace``), and frame aggregation (``--metrics-out``).

Quick taste::

    from repro.zns.device import ZNSDevice
    from repro.flash.geometry import ZonedGeometry

    device = ZNSDevice(ZonedGeometry.small())
    device.write(0, npages=4)       # sequential, at the write pointer
    offset, _ = device.append(0)    # device assigns the offset
    device.reset_zone(0)            # erase; write pointer rewinds

See README.md for the tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
