"""The repository's end-to-end benchmark: five workloads, a per-layer budget
and a traced run.  See README.md in this directory; ``run.py`` is the entry
the driver calls, ``python -m benchmarks.e2e`` the one people call."""
