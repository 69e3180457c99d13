"""Closed-loop host-time benchmark for the imcperf CLI (see README.md)."""
