"""Evaluation-system models: design, host, DMA and the executable system."""

from .design import PORT_NAMES, datamaestro_evaluation_system, validate_port_widths
from .host import HostProcessor
from .system import AcceleratorSystem

__all__ = [
    "PORT_NAMES",
    "datamaestro_evaluation_system",
    "validate_port_widths",
    "HostProcessor",
    "AcceleratorSystem",
]
