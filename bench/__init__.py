"""The repository's benchmark: five named workloads, measured from outside.

``bench/README.md`` says what each workload stresses and how to compare two
commits; ``BENCHMARK.json`` at the repository root names the command, the
workloads and every metric with its unit, direction and regression bound.
Nothing in here is imported by ``src/``.
"""
