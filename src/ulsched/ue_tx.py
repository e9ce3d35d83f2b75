"""UE-side drain of a granted byte budget.

strict_priority_drain empties voice, then video, then data. The flip drain
(knapsack mode) assigns each buffered packet a reward - delay ratio for the
real-time classes, buffer build-up for data - and fills the grant greedily by
reward density with byte-level fragmentation, so a nearly-expired video
packet can overtake fresh voice. Greedy with fragmentation attains the
fractional-knapsack optimum.

Each drain only orders the packets; `UeBuffer.send` walks them, the buffer
books the sent bytes, and the drain returns the (cls, size, delay_ms) of
each fully sent packet, in drain order.
"""

from itertools import chain
from operator import itemgetter

from .traffic import DATA, UeBuffer, VIDEO, VOICE


def _reward_pairs(buf: UeBuffer, tti: int):
    """(reward, packet) for every buffered packet, voice, video, then data,
    each in FIFO order. Voice and video rewards are the packet delay over the
    class deadline (deadline enforcement has already run, so they lie in
    [0, 1]); data packets share one buffer-pressure reward."""
    out = []
    for cls in (VOICE, VIDEO):
        d = buf.deadlines[cls]
        for p in buf.queues[cls]:
            out.append(((tti - p.arrival_tti) / d, p))
    r_data = max(buf.total - buf.threshold, 0) / (buf.capacity - buf.threshold)
    for p in buf.queues[DATA]:
        out.append((r_data, p))
    return out


def flip_drain(buf: UeBuffer, grant: int, tti: int) -> list:
    """The knapsack drain: order every buffered packet by reward density
    (ties: higher reward, then older arrival, then the `_reward_pairs` order,
    so voice before video before data) and send in that order. Sorting plain
    tuples keeps the comparison in C."""
    keyed = [(-r / p.remaining, -r, p.arrival_tti, seq, p)
             for seq, (r, p) in enumerate(_reward_pairs(buf, tti))]
    keyed.sort()
    return buf.send(map(itemgetter(4), keyed), grant, tti)


def strict_priority_drain(buf: UeBuffer, grant: int, tti: int) -> list:
    """Send voice, then video, then data, FIFO within each class."""
    q = buf.queues
    return buf.send(chain(q[VOICE], q[VIDEO], q[DATA]), grant, tti)
