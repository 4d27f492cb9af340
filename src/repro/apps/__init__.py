"""Applications built over the storage stacks.

Each application is implemented once and runs over interchangeable
backends (conventional block device, host block-on-ZNS, zone-native), so
experiments compare *interfaces* with the application held constant:

- :mod:`repro.apps.lsm` -- a leveled LSM-tree KV store (the RocksDB
  stand-in for the §2.4 claims).
- :mod:`repro.apps.cache` -- a log-structured flash cache (CacheLib/RIPQ
  flavor, §2 and §4.1).
"""
