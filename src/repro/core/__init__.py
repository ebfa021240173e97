"""DataMaestro core: AGU, remapper, extensions, CSRs and the streamer top,
whose channels are a data FIFO and a memory port each."""

from .agu import (
    AddressGenerationUnit,
    SpatialAddressGenerator,
    TemporalAddressGenerator,
    reference_address_sequence,
    reference_temporal_addresses,
)
from .csr import (
    CsrAddressMap,
    decode_runtime_config,
    encode_runtime_config,
)
from .extensions import (
    Broadcaster,
    DatapathExtension,
    ExtensionPipeline,
    Transposer,
    create_extension,
    register_extension,
    registered_extensions,
)
from .params import (
    ABLATION_STEPS,
    ExtensionSpec,
    FeatureSet,
    MemoryDesign,
    StreamerDesign,
    StreamerMode,
    StreamerRuntimeConfig,
    ablation_feature_sets,
    validate_streamer_designs,
)
from .remapper import AddressRemapper
from .streamer import DataMaestro

__all__ = [
    "AddressGenerationUnit",
    "SpatialAddressGenerator",
    "TemporalAddressGenerator",
    "reference_address_sequence",
    "reference_temporal_addresses",
    "CsrAddressMap",
    "encode_runtime_config",
    "decode_runtime_config",
    "DatapathExtension",
    "Transposer",
    "Broadcaster",
    "ExtensionPipeline",
    "create_extension",
    "register_extension",
    "registered_extensions",
    "ExtensionSpec",
    "FeatureSet",
    "MemoryDesign",
    "StreamerDesign",
    "StreamerMode",
    "StreamerRuntimeConfig",
    "ABLATION_STEPS",
    "ablation_feature_sets",
    "validate_streamer_designs",
    "AddressRemapper",
    "DataMaestro",
]
