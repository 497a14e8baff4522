"""The repo's benchmark: frame-to-alert latency, throughput and cost.

One command (``python3 bench/run.py``) runs four named workloads against
the unmodified public API of :mod:`repro`, verifies every output against
an oracle and prints every metric by name.  See ``bench/README.md``.
"""
