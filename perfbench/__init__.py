"""End-to-end and per-layer benchmark of the emitpair package.

Run ``python3 perfbench/run.py --help`` from the repository root.  The
benchmark drives the package only through its public API and edits no file of
it; per-layer spans come from wrappers installed at run time (``spans.py``).
"""
