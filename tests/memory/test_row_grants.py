"""The edges of row grants: where a cycle leaves the whole-row path.

A cycle grants its head rows whole only when no bank is named twice among
them and every pending stream's channels stand at one grant cursor; every
other cycle runs the per-bank round robin over each channel's head.  Three
hand-built kernels sit on those edges:

* (a) two streamers whose head rows share exactly one bank in one cycle;
* (b) a row that names the same bank on two of its channels;
* (c) a streamer that falls out of step when a by-name request takes one
  channel's bank for a cycle, and later stands at one cursor again.

Each pins the per-channel statistics, the ports' grants, retries and
deliveries, the per-bank access counts, the arbiter's pointers and the
scratchpad's bytes to the values the per-word arbiter (one queue per
channel, before rows) produced on the same kernels.  The lockstep engine is
no referee here: it steps through the same arbitration.
"""

import hashlib

import numpy as np

from repro.core import DataMaestro, StreamerDesign, StreamerMode, StreamerRuntimeConfig
from repro.core.streamer import CHANNEL_FIELDS
from repro.memory import BankGeometry, MemoryRequest, MemorySubsystem

GEOMETRY = BankGeometry(num_banks=8, bank_width_bytes=8, bank_depth=16)


def design(name, mode=StreamerMode.READ, channels=2, data_depth=2):
    return StreamerDesign(
        name=name,
        mode=mode,
        num_channels=channels,
        spatial_bounds=(channels,),
        temporal_dims=2,
        bank_width_bits=64,
        address_buffer_depth=2,
        data_buffer_depth=data_depth,
    )


def streamer(name, base, steps, spatial=8, stride=16, **kwargs):
    """A streamer whose step ``i`` addresses ``base + i * stride`` on
    channel 0 and ``spatial`` bytes further on channel 1 (FIMA: a word is
    8 bytes, bank ``address // 8 % 8``)."""
    dm = DataMaestro(design(name, **kwargs), GEOMETRY, [GEOMETRY.num_banks])
    dm.configure(
        StreamerRuntimeConfig(
            base_address=base,
            temporal_bounds=(steps,),
            temporal_strides=(stride,),
            spatial_strides=(spatial,),
            bank_group_size=GEOMETRY.num_banks,
        )
    )
    return dm


def filled_memory():
    memory = MemorySubsystem(GEOMETRY)
    memory.scratchpad.storage[...] = (
        np.arange(memory.scratchpad.storage.size) % 251
    ).reshape(memory.scratchpad.storage.shape)
    return memory


def run(memory, readers, writer=None, hog=None, stalls=(), cycles=200):
    """Step the streamers by hand: the writer stores what the first reader
    pops (except in the cycles ``stalls`` names), the other readers' words
    are dropped; ``hog`` maps a cycle to a by-name read ``(requester,
    bank)`` submitted then."""
    everyone = readers + ([writer] if writer else [])
    grants = []  # every port's grant count after each cycle
    for cycle in range(cycles):
        if all(dm.done for dm in everyone):
            break
        for dm in everyone:
            dm.begin_cycle()
        memory.deliver()
        first, *others = readers
        ready = writer is None or writer.input_ready()
        if cycle not in stalls and first.output_valid() and ready:
            word = first.pop_output()
            if writer is not None:
                writer.push_input(word)
        for dm in others:
            if dm.output_valid():
                dm.pop_output()
        for dm in everyone:
            dm.generate_addresses()
            dm.issue_requests(memory)
        if hog and cycle in hog:
            requester, bank = hog[cycle]
            memory.submit(MemoryRequest(requester, False, bank, 0))
        memory.step()
        grants.append(tuple(port.granted for dm in everyone for port in dm.ports))
    assert all(dm.done for dm in everyone), "kernel did not drain"
    return dict(state(memory, everyone), grants=grants)


def state(memory, streamers):
    channels = {}
    for dm in streamers:
        for name, row in dm.channel_statistics().items():
            channels[name] = tuple(row[field] for field in CHANNEL_FIELDS)
    return {
        "channels": channels,
        "ports": {
            port.name: (port.granted, port.retries, port.delivered)
            for dm in streamers
            for port in dm.ports
        },
        "banks": [(b.read_count, b.write_count) for b in memory.scratchpad.banks],
        "last_grant": dict(sorted(memory.grant_pointers().items())),
        "conflicts": memory.total_conflicts,
        "storage": hashlib.sha256(memory.scratchpad.storage.tobytes()).hexdigest(),
    }


def kernel_a():
    """Reader ``ra`` names banks (2i, 2i+1), reader ``rb`` banks (2i+1,
    2i+2): their first head rows share bank 1 only.  A writer copies what
    ``ra`` pops to line 8 on."""
    memory = filled_memory()
    ra = streamer("ra", base=0, steps=6)
    rb = streamer("rb", base=8, steps=6)
    writer = streamer("wa", base=8 * 64, steps=6, mode=StreamerMode.WRITE)
    return run(memory, [ra, rb], writer)


def kernel_b():
    """Reader ``rs`` names one bank on both channels of every row (its
    channel 1 is 64 bytes — one line of every bank — past channel 0), beside
    a reader on other banks."""
    memory = filled_memory()
    rs = streamer("rs", base=0, steps=5, spatial=64, stride=8)
    rt = streamer("rt", base=32, steps=5, stride=16)
    writer = streamer("ws", base=10 * 64, steps=5, mode=StreamerMode.WRITE)
    return run(memory, [rs, rt], writer)


def kernel_c():
    """Reader ``rc`` streams banks (2i, 2i+1) with room for two words per
    channel; at cycle 4 a by-name read wins bank 0 (channel 0's head, step
    4; the arbiter points at ``rc.ch0``, granted there at step 0) from it,
    so channel 1 runs a word ahead until nothing is popped for two cycles,
    the credits stop the issue and channel 0 catches up; the rest of the
    stream moves in step."""
    memory = filled_memory()
    rc = streamer("rc", base=0, steps=14)
    writer = streamer("wc", base=12 * 64, steps=14, mode=StreamerMode.WRITE)
    return run(memory, [rc], writer, hog={4: ("a_hog", 0)}, stalls=(7, 8))


#: What the per-word arbiter left after each kernel.
EXPECTED = {'a': {'channels': {'ra.ch0': (6, 6, 0, 1, 1),
                               'ra.ch1': (6, 6, 0, 1, 1),
                               'rb.ch0': (6, 6, 0, 1, 1),
                               'rb.ch1': (6, 6, 0, 2, 1),
                               'wa.ch0': (6, 6, 0, 1, 2),
                               'wa.ch1': (6, 6, 0, 1, 2)},
                  'ports': {'ra.ch0': (6, 0, 6),
                            'ra.ch1': (6, 1, 6),
                            'rb.ch0': (6, 2, 6),
                            'rb.ch1': (6, 0, 6),
                            'wa.ch0': (6, 0, 6),
                            'wa.ch1': (6, 1, 6)},
                  'banks': [(3, 2), (4, 2), (4, 2), (4, 2), (3, 1), (2, 1), (2, 1),
                            (2, 1)],
                  'last_grant': {0: 'wa.ch0',
                                 1: 'wa.ch1',
                                 2: 'wa.ch0',
                                 3: 'wa.ch1',
                                 4: 'rb.ch1',
                                 5: 'wa.ch1',
                                 6: 'wa.ch0',
                                 7: 'wa.ch1'},
                  'conflicts': 2,
                  'storage': '70db926ca193188cfcd07e69edd0101505233d4aed62b6f755544c7a87e08462',
                  'grants': [(1, 1, 0, 1, 0, 0), (2, 2, 1, 2, 1, 0), (3, 3, 2, 3, 2, 1),
                             (4, 4, 3, 4, 3, 2), (5, 5, 4, 5, 4, 3), (6, 6, 5, 6, 5, 4),
                             (6, 6, 6, 6, 6, 5), (6, 6, 6, 6, 6, 6), (6, 6, 6, 6, 6, 6)]},
            'b': {'channels': {'rs.ch0': (5, 5, 0, 2, 1),
                               'rs.ch1': (5, 5, 0, 1, 1),
                               'rt.ch0': (5, 5, 0, 1, 1),
                               'rt.ch1': (5, 5, 0, 1, 1),
                               'ws.ch0': (5, 5, 0, 1, 2),
                               'ws.ch1': (5, 5, 0, 1, 2)},
                  'ports': {'rs.ch0': (5, 1, 5),
                            'rs.ch1': (5, 5, 5),
                            'rt.ch0': (5, 5, 5),
                            'rt.ch1': (5, 4, 5),
                            'ws.ch0': (5, 3, 5),
                            'ws.ch1': (5, 3, 5)},
                  'banks': [(3, 2), (3, 2), (3, 1), (3, 1), (4, 1), (2, 1), (1, 1),
                            (1, 1)],
                  'last_grant': {0: 'ws.ch0',
                                 1: 'ws.ch1',
                                 2: 'ws.ch0',
                                 3: 'ws.ch1',
                                 4: 'ws.ch0',
                                 5: 'ws.ch1',
                                 6: 'ws.ch0',
                                 7: 'ws.ch1'},
                  'conflicts': 11,
                  'storage': 'c0e9d0b9e2826a9c06d1049aeb11c28e6b15b7da6b6741edf3a3f086bca32453',
                  'grants': [(1, 0, 1, 1, 0, 0), (2, 1, 2, 2, 0, 0), (3, 2, 3, 2, 0, 0),
                             (4, 3, 3, 3, 1, 0), (5, 4, 4, 3, 1, 1), (5, 5, 4, 4, 2, 1),
                             (5, 5, 5, 5, 2, 2), (5, 5, 5, 5, 3, 3), (5, 5, 5, 5, 4, 4),
                             (5, 5, 5, 5, 5, 5), (5, 5, 5, 5, 5, 5)]},
            'c': {'channels': {'rc.ch0': (14, 14, 2, 2, 2),
                               'rc.ch1': (14, 14, 2, 2, 2),
                               'wc.ch0': (14, 14, 0, 1, 2),
                               'wc.ch1': (14, 14, 0, 1, 2)},
                  'ports': {'rc.ch0': (14, 1, 14),
                            'rc.ch1': (14, 0, 14),
                            'wc.ch0': (14, 0, 14),
                            'wc.ch1': (14, 0, 14)},
                  'banks': [(5, 4), (4, 4), (4, 4), (4, 4), (3, 3), (3, 3), (3, 3),
                            (3, 3)],
                  'last_grant': {0: 'wc.ch0',
                                 1: 'wc.ch1',
                                 2: 'wc.ch0',
                                 3: 'wc.ch1',
                                 4: 'wc.ch0',
                                 5: 'wc.ch1',
                                 6: 'wc.ch0',
                                 7: 'wc.ch1'},
                  'conflicts': 1,
                  'storage': '301029054d71a64b934340cf1950ec2b72f80a8f8ad2e7e8af298021c037c99d',
                  'grants': [(1, 1, 0, 0), (2, 2, 1, 1), (3, 3, 2, 2), (4, 4, 3, 3),
                             (4, 5, 4, 4), (5, 6, 4, 4), (6, 7, 5, 5), (7, 7, 5, 5),
                             (7, 7, 5, 5), (8, 8, 6, 6), (9, 9, 7, 7), (10, 10, 8, 8),
                             (11, 11, 9, 9), (12, 12, 10, 10), (13, 13, 11, 11),
                             (14, 14, 12, 12), (14, 14, 13, 13), (14, 14, 14, 14),
                             (14, 14, 14, 14)]}}


def test_head_rows_sharing_one_bank_take_turns():
    assert kernel_a() == EXPECTED["a"]


def test_a_row_naming_one_bank_twice_is_granted_word_by_word():
    assert kernel_b() == EXPECTED["b"]


def test_a_stream_out_of_step_realigns():
    assert kernel_c() == EXPECTED["c"]


if __name__ == "__main__":
    for name, kernel in (("a", kernel_a), ("b", kernel_b), ("c", kernel_c)):
        print(repr(name), ":", repr(kernel()), ",")
