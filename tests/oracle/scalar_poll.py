"""Scalar reference for ``repro.sim.engine.Poll``.

This is the stall loop as the conventional and dm-zoned timed stacks'
write processes ran it in their own generators before polling moved
into the engine (commit c98fa0a; today both stacks' writes wait in
``TimedFrontEnd._request``), kept verbatim:
the waiter is resumed on every tick to re-read the condition and goes
back to sleep on a fresh pooled ``Timeout``. It pins what ``Engine.poll``
must reproduce -- one event per tick, in the ``(time, seq)`` order its
sleeps had, the waiter continuing inside the tick that finds the condition
clear, and as many blocked ticks as the loop had ``blocked()`` calls that
said true after the inline one (the engine itself checks once per batch
of ticks, not once per tick).
"""


def wait_while(engine, blocked, interval):
    while blocked():
        yield engine.sleep(interval)
