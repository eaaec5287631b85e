"""Poke the slot channel model directly: capture, collision, and
constructive interference.

Received power follows log-distance path loss, and a receiver facing several
simultaneous frames decodes the strongest one only when it clears the sum of
the rest by the capture threshold (default 3 dB). Frames with byte-identical
payloads are one group: they reinforce instead of competing. A slot is
decided over a link table, which holds every pair of stations within
comm_range and their received power.

Run with:  python demos/capture_effect.py
"""

from zonecast import (
    ChannelConfig,
    Packet,
    ZoneIndex,
    link_table,
    received_power,
    resolve_slot,
)

Z = ZoneIndex(0, 0)
cfg = ChannelConfig()  # comm_range 100 m, 3 dB capture threshold


def show(title, senders, receiver=(0.0, 0.0)):
    """Resolve one slot in which each (id, position, payload) sender
    transmits and vehicle 99 at ``receiver`` listens."""
    table = link_table([(99, receiver)] + [(vid, pos) for vid, pos, _ in senders], cfg)
    packets = [Packet(vid, Z, payload) for vid, _, payload in senders]
    out = resolve_slot(packets, table)[99]
    if out.packet is not None:
        print(f"{title}: {out.kind} (frame from vehicle {out.packet.sender})")
    else:
        print(f"{title}: {out.kind}")


# Path loss: each doubling of distance costs the same number of dB.
for d in (10.0, 20.0, 40.0, 80.0):
    p = received_power((d, 0.0), (0.0, 0.0), cfg)
    print(f"received power at {d:>4.0f} m: {p:7.2f} dB")
print()

# One transmitter: always decoded inside comm range.
show("lone sender at 20 m", [(1, (20.0, 0.0), b"\xaa")])

# Two different frames, one much closer: the near frame captures the slot.
show(
    "senders at 10 m and 40 m",
    [(1, (10.0, 0.0), b"\xaa"), (2, (40.0, 0.0), b"\xbb")],
)

# Two different frames at equal distance: 0 dB margin, nobody wins.
show(
    "equidistant senders     ",
    [(1, (25.0, 0.0), b"\xaa"), (2, (-25.0, 0.0), b"\xbb")],
)

# The same two positions, but now both send the same bytes: the frames are
# one constructive group and the receiver decodes.
show(
    "identical payloads      ",
    [(1, (25.0, 0.0), b"\xaa"), (2, (-25.0, 0.0), b"\xaa")],
)

# A sender never hears its own slot: half-duplex radios report silence.
table = link_table([(1, (10.0, 0.0))], cfg)
out = resolve_slot([Packet(1, Z, b"\xaa")], table)[1]
print(f"the sender's own slot   : {out.kind}")
