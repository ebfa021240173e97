"""Compiler: layouts, allocation and workload-to-CSR lowering."""

from .allocator import AllocationError, MemoryAllocator
from .mapper import compile_conv, compile_gemm, compile_workload, extract_outputs
from .programs import KernelProgram, PrePass, ReadbackSpec, TensorLoad
from .reference import conv2d_reference, gemm_reference, im2col_reference

__all__ = [
    "MemoryAllocator",
    "AllocationError",
    "compile_workload",
    "compile_gemm",
    "compile_conv",
    "extract_outputs",
    "KernelProgram",
    "TensorLoad",
    "PrePass",
    "ReadbackSpec",
    "gemm_reference",
    "conv2d_reference",
    "im2col_reference",
]
