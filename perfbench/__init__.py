"""The repository's benchmark: the deployed check-in path and the crawl.

See ``perfbench/README.md`` for the workloads, metrics and run protocol.
"""
