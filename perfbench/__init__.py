"""Whole-run benchmark of the simulator: ``run.py`` runs it, ``RECORD.md`` explains it."""
