"""The repo benchmark: four long workloads, two clocks, host time by
layer.  See ``bench/README.md``; the entry point is ``bench/run.py``.

The benchmark lives outside ``src/`` on purpose: it drives the system
through public entry points only, and owns its load generators, so a
change that claims a gain cannot also change what is measured.
"""
