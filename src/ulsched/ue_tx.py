"""UE-side drain of a granted byte budget.

strict_priority_drain empties voice, then video, then data. The flip drain
(knapsack mode) gives each buffered packet a reward - delay ratio for the
real-time classes, buffer build-up for data - and fills the grant greedily by
reward density with byte-level fragmentation, so a nearly-expired video
packet can overtake fresh voice. Greedy with fragmentation attains the
fractional-knapsack optimum; only the packets the grant can reach are
ranked.

Each drain only orders the packets; `UeBuffer.send` walks them, the buffer
books the sent bytes, and the drain returns the (cls, size, delay_ms) of
each fully sent packet, in drain order.
"""

import math
from itertools import chain
from operator import itemgetter

from .traffic import DATA, UeBuffer, VIDEO, VOICE


def flip_drain(buf: UeBuffer, grant: int, tti: int) -> list:
    """The knapsack drain: send in the order of the full sort of every
    buffered packet by the key (-density, -reward, arrival, seq), density
    being reward over remaining bytes and seq the position in voice, video,
    data order, FIFO within each class. Voice and video rewards are the
    packet delay over the class deadline (deadline enforcement has already
    run, so they lie in [0, 1]); data packets share one buffer-pressure
    reward. Sorting plain tuples keeps the comparison in C.

    Only packets the grant can reach get a key. Each class is walked in FIFO
    order; once the packets keyed so far in it hold the grant, a packet q is
    skipped if its remaining is at least the largest keyed one's, its arrival
    is no earlier than the latest keyed one's and not after `tti`. Then q
    sorts after every keyed packet p of its class: p arrived no later than
    q, which arrived by `tti`, so 0 <= reward(q) <= reward(p) (data rewards
    are equal), and over at least as many bytes q's density is at most p's
    (the rounded quotients are monotone too); on equal densities and
    rewards its arrival is no earlier, and its seq is later. In the full sort those packets come
    before q and hold the grant, so the send stops before reaching q. The
    packets the send reaches are therefore all keyed, and the sort of the
    keyed ones puts them in the same order. No arrival order is assumed."""
    keyed = []
    seq = 0
    r_data = max(buf.total - buf.threshold, 0) / (buf.capacity - buf.threshold)
    deadlines = buf.deadlines
    for cls, d in ((VOICE, deadlines[VOICE]), (VIDEO, deadlines[VIDEO]), (DATA, None)):
        held = big = 0
        late = -math.inf
        for p in buf.queues[cls]:
            rem, a = p.remaining, p.arrival_tti
            if held >= grant and rem >= big and late <= a <= tti:
                continue
            r = (tti - a) / d if d else r_data
            keyed.append((-r / rem, -r, a, seq, p))
            seq += 1
            held += rem
            if rem > big:
                big = rem
            if a > late:
                late = a
    keyed.sort()
    return buf.send(map(itemgetter(4), keyed), grant, tti)


def strict_priority_drain(buf: UeBuffer, grant: int, tti: int) -> list:
    """Send voice, then video, then data, FIFO within each class."""
    q = buf.queues
    return buf.send(chain(q[VOICE], q[VIDEO], q[DATA]), grant, tti)
