"""Scalar reference for ``repro.sim.engine.Poll``.

This is the stall loop as ``TimedConventionalSSD._write_proc`` and
``TimedZonedBlockDevice._write_proc`` ran it in their own generators
before polling moved into the engine (commit c98fa0a), kept verbatim:
the waiter is resumed on every tick to re-read the condition and goes
back to sleep on a fresh pooled ``Timeout``. It pins what ``Engine.poll``
must reproduce -- one event and one sequence number per tick, one
``blocked()`` call per tick, and the waiter continuing inside the tick
that finds the condition clear.
"""


def wait_while(engine, blocked, interval):
    while blocked():
        yield engine.sleep(interval)
