"""Out-of-process wire benchmark of the Curator service (see run.py)."""
