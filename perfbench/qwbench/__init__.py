"""End-to-end and per-layer benchmark of qwsearch.

The package holds the benchmark's logic; ``perfbench/run.py`` is its entry
point.  Nothing here imports qwsearch at module level, so the inputs,
statistics and tracer can be tested without the program under test.
"""
