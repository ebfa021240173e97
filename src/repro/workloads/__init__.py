"""Workload specifications, the synthetic ablation suite and DNN layer tables."""

from .networks import (
    NetworkLayer,
    NetworkModel,
    benchmark_networks,
    bert_base,
    mobilenet_v2,
    resnet18,
    vgg16,
    vit_base_16,
)
from .generate import (
    BUNDLE_FAMILIES,
    FAMILIES,
    WorkloadGenerator,
    regression_snippet,
    shrink,
    workload_fits,
    zipf_weights,
)
from .spec import ConvWorkload, GemmWorkload, WorkloadGroup, workload_group
from .synthetic import (
    FULL_SUITE_COUNTS,
    generate_conv_workloads,
    generate_gemm_workloads,
    stratified_subset,
    synthetic_suite,
)

__all__ = [
    "ConvWorkload",
    "GemmWorkload",
    "WorkloadGroup",
    "workload_group",
    "synthetic_suite",
    "generate_gemm_workloads",
    "generate_conv_workloads",
    "stratified_subset",
    "FULL_SUITE_COUNTS",
    "NetworkLayer",
    "NetworkModel",
    "benchmark_networks",
    "resnet18",
    "vgg16",
    "vit_base_16",
    "bert_base",
    "mobilenet_v2",
    "FAMILIES",
    "BUNDLE_FAMILIES",
    "WorkloadGenerator",
    "regression_snippet",
    "shrink",
    "workload_fits",
    "zipf_weights",
]
