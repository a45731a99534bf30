"""Benchmark harness for the undercut simulator; see README.md."""
