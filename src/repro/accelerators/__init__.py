"""Accelerator datapaths served by the DataMaestros (GeMM core, quantizer)."""

from .gemm_core import GemmCore, GemmJob
from .quantizer import QuantizationConfig, Quantizer, rescale_tile

__all__ = ["GemmCore", "GemmJob", "Quantizer", "QuantizationConfig", "rescale_tile"]
