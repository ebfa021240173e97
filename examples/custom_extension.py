#!/usr/bin/env python3
"""Plug-and-play datapath extensions: add a custom on-the-fly ReLU stage.

DataMaestro's datapath-extension interface (paper §III-E) lets users insert
their own data-manipulation logic between the data FIFOs and the accelerator
without touching the streamer itself.  This example registers a custom
``relu8`` extension, instantiates a read streamer that cascades it after the
built-in Transposer, and streams a tile through both stages — demonstrating
cascading, runtime bypass and the extension registry.

Run with:  python examples/custom_extension.py
"""

import numpy as np

from repro.core import (
    DataMaestro,
    DatapathExtension,
    ExtensionSpec,
    StreamerDesign,
    StreamerMode,
    StreamerRuntimeConfig,
    register_extension,
    registered_extensions,
)
from repro.memory import BankGeometry, MemorySubsystem


@register_extension
class ReluExtension(DatapathExtension):
    """Clamp negative int8 values to zero on the fly."""

    kind = "relu8"

    def process(self, word: np.ndarray) -> np.ndarray:
        values = word.view(np.int8)
        return np.maximum(values, 0).astype(np.int8).view(np.uint8)


def stream_all(streamer, memory):
    words = []
    while not streamer.done:
        streamer.begin_cycle()
        memory.deliver()
        if streamer.output_valid():
            words.append(streamer.pop_output())
        streamer.generate_addresses()
        streamer.issue_requests(memory)
        memory.step()
    return words


def main():
    print("registered extension kinds:", sorted(registered_extensions()))

    geometry = BankGeometry(num_banks=8, bank_width_bytes=8, bank_depth=64)
    memory = MemorySubsystem(geometry)

    # A 4x4 int8 tile with positive and negative values, stored row-major.
    tile = np.array(
        [[-3, 5, -7, 9], [2, -4, 6, -8], [-1, 1, -2, 2], [10, -10, 20, -20]],
        dtype=np.int8,
    )
    memory.scratchpad.backdoor_write(0, tile.view(np.uint8).reshape(-1), group_size=8)
    print("input tile:\n", tile)

    design = StreamerDesign(
        name="relu_streamer",
        mode=StreamerMode.READ,
        num_channels=2,
        spatial_bounds=(2,),
        temporal_dims=2,
        extensions=(
            ExtensionSpec.make("transposer", rows=4, cols=4, element_bytes=1),
            ExtensionSpec.make("relu8"),
        ),
    )
    streamer = DataMaestro(design, geometry, group_size_options=[8, 1])

    # One wide word = the whole 16-byte tile; cascade transposer -> relu.
    runtime = StreamerRuntimeConfig(
        base_address=0,
        temporal_bounds=(1,),
        temporal_strides=(16,),
        spatial_strides=(8,),
        bank_group_size=8,
        extension_enables=(True, True),
        extension_params=(
            ("transposer", (("rows", 4), ("cols", 4), ("element_bytes", 1))),
        ),
    )
    streamer.configure(runtime)
    word = stream_all(streamer, memory)[0].view(np.int8).reshape(4, 4)
    print("\nstreamed with Transposer + ReLU enabled:\n", word)
    expected = np.maximum(tile.T, 0)
    print("matches numpy reference:", np.array_equal(word, expected))

    # Re-run with the ReLU stage bypassed at runtime.
    streamer.configure(runtime.with_updates(extension_enables=(True, False)))
    memory = MemorySubsystem(geometry)
    memory.scratchpad.backdoor_write(0, tile.view(np.uint8).reshape(-1), group_size=8)
    word = stream_all(streamer, memory)[0].view(np.int8).reshape(4, 4)
    print("\nstreamed with ReLU bypassed (transpose only):\n", word)
    print("matches plain transpose:", np.array_equal(word, tile.T))


if __name__ == "__main__":
    main()
