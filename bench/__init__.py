"""The repository benchmark: fresh-process rounds of four workloads.

Run ``python3 -m bench run --workload NAME --seed N`` from the root of
the repository; see ``bench/README.md`` for the workload and metric
catalogue.  Kept import-free so that ``python -m bench.child`` starts
its sampler before anything else is loaded.
"""
