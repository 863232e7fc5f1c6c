"""Name of the numerical backend: every kernel has one numpy implementation."""


def active_backend() -> str:
    # Kept for perfbench/run.py, which records it in each run's environment.
    return "numpy"
