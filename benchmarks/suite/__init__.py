"""The repository benchmark: end-to-end and per-layer host-time metrics.

Four workloads drive the public API from one process: a cold and a warm
sweep of the paper's scaling figures, the LLM governor grid, and the job
service under mixed open- and closed-loop traffic.  See ``README.md`` in
this directory for the metrics, their bounds and the protocol for
performance changes.
"""
