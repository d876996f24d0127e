"""Utilities: run configuration, seeding, flop accounting, ASCII tables."""

from .config import env_float, env_int, scaled_sizes
from .seeds import spawn_seeds, stable_seed
from .table import format_table
from .flops import spmv_flops, axpy_flops, dot_flops
from .plotting import ascii_semilogy, ascii_timeline

__all__ = [
    "env_float",
    "env_int",
    "scaled_sizes",
    "spawn_seeds",
    "stable_seed",
    "format_table",
    "spmv_flops",
    "axpy_flops",
    "dot_flops",
    "ascii_semilogy",
    "ascii_timeline",
]
