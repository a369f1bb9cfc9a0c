"""Measurement spine: four workloads, absolute end-to-end numbers and
per-layer attribution for the repo's two paths (a characterization cell
and a served request).  See README.md; declared in /BENCHMARK.json.
"""
