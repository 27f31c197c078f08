"""Benchmark of the text_to_rdf_ray KG-construction pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload web_pages --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` lists the workloads and metrics; ``perfbench/targets.json``
names the end-to-end metric and workload each per-layer metric should move.
"""
