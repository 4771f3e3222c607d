"""The names of the loss family's members, in one numpy-free place.

:mod:`cccmap.losses` validates a variant against them and the CLI offers them as
the choices of ``loss --variant``, which its parser builds without numpy.
"""

from __future__ import annotations

from typing import Literal, get_args

Variant = Literal[
    "ratio",
    "ratio_pow",
    "general_ratio",
    "diff",
    "diff_pow",
    "general_diff",
    "abs_mse_over_cov",
]

VARIANTS: tuple[Variant, ...] = get_args(Variant)
