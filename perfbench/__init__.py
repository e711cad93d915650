"""End-to-end and per-layer benchmark of the MACO reproduction (see README.md)."""
