"""Evaluation harness: the paper's Section IV, figure by figure."""

from .harness import (
    EvalContext,
    baseline_gemm_breakdown,
    exo_gemm_breakdown,
    fig13_solo_data,
    fig14_square_data,
    fig15_resnet_layer_data,
    fig16_resnet_time_data,
    fig17_vgg_layer_data,
    fig18_vgg_time_data,
    machine_context,
    portability_solo_data,
    solo_sweep_data,
)
from .report import render_table

__all__ = [
    "EvalContext",
    "baseline_gemm_breakdown",
    "exo_gemm_breakdown",
    "fig13_solo_data",
    "fig14_square_data",
    "fig15_resnet_layer_data",
    "fig16_resnet_time_data",
    "fig17_vgg_layer_data",
    "fig18_vgg_time_data",
    "machine_context",
    "portability_solo_data",
    "render_table",
    "solo_sweep_data",
]
