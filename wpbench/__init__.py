"""Benchmark of the wpvol command line: seeded job lists, goldens, traced runs."""
