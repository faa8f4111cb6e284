"""Cavity-EIT / vacuum-induced-transparency modeling toolkit.

Subpackages are importable directly; nothing heavy happens at import time.
All internal frequencies are angular (rad/s). Flags and files use MHz / um / us,
converted where they are read or written; config.MHZ is the only unit constant.
"""

from vitlab.errors import BandCoverageError, ConvergenceError, RankDeficientError

__all__ = ["BandCoverageError", "ConvergenceError", "RankDeficientError"]
__version__ = "0.1.0"
