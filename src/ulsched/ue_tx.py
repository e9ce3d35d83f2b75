"""UE-side drain of a granted byte budget.

strict_priority_drain empties voice, then video, then data. The flip drain
(knapsack mode) assigns each buffered packet a reward - delay ratio for the
real-time classes, buffer build-up for data - and fills the grant greedily by
reward density with byte-level fragmentation, so a nearly-expired video
packet can overtake fresh voice. Greedy with fragmentation attains the
fractional-knapsack optimum.

Both drains book the sent bytes in the buffer's counters only and return the
(cls, size, delay_ms) of each fully sent packet, in drain order.
"""

from .traffic import DATA, UeBuffer, VIDEO, VOICE

_CLASS_RANK = {VOICE: 0, VIDEO: 1, DATA: 2}


def _reward_pairs(buf: UeBuffer, tti: int):
    """(reward, packet) for every buffered packet. Voice and video rewards
    are the packet delay over the class deadline (deadline enforcement has
    already run, so they lie in [0, 1]); data packets share one buffer-
    pressure reward and keep FIFO order among themselves."""
    out = []
    d_vo = buf.deadlines[VOICE]
    for p in buf.queues[VOICE]:
        out.append(((tti - p.arrival_tti) / d_vo, p))
    d_vi = buf.deadlines[VIDEO]
    for p in buf.queues[VIDEO]:
        out.append(((tti - p.arrival_tti) / d_vi, p))
    if buf.total > buf.threshold:
        r_data = (buf.total - buf.threshold) / (buf.capacity - buf.threshold)
    else:
        r_data = 0.0
    for p in buf.queues[DATA]:
        out.append((r_data, p))
    return out


def flip_drain(buf: UeBuffer, grant: int, tti: int) -> list:
    """The knapsack drain: order every buffered packet by reward density
    (ties: higher reward, then older arrival, then voice before video before
    data), take whole packets until the grant runs short and fragment the
    last one to fill it exactly. Fully sent packets leave their queues;
    a fragment keeps its place and arrival, so its delay clock runs on.
    Sorting plain tuples keeps the comparison in C."""
    delivered = []
    if grant <= 0 or buf.total == 0:
        return delivered
    keyed = [(-r / p.remaining, -r, p.arrival_tti, _CLASS_RANK[p.cls], seq, p)
             for seq, (r, p) in enumerate(_reward_pairs(buf, tti))]
    keyed.sort()
    budget = int(grant)
    touched = set()
    for _density, _reward, _arrival, _rank, _seq, p in keyed:
        if budget == 0:
            break
        take = p.remaining if p.remaining <= budget else budget
        budget -= take
        p.remaining -= take
        buf.transmitted[p.cls] += take
        buf.occupancy[p.cls] -= take
        buf.total -= take
        if p.remaining == 0:
            touched.add(p.cls)
            delivered.append((p.cls, p.size, tti - p.arrival_tti))
    for cls in touched:
        q = buf.queues[cls]
        buf.queues[cls] = type(q)(p for p in q if p.remaining > 0)
    return delivered


def strict_priority_drain(buf: UeBuffer, grant: int, tti: int) -> list:
    """Drain voice, then video, then data, FIFO within each class,
    fragmenting at the budget boundary."""
    delivered = []
    budget = int(grant)
    for cls in (VOICE, VIDEO, DATA):
        q = buf.queues[cls]
        sent = 0
        while q and budget > 0:
            p = q[0]
            take = p.remaining if p.remaining <= budget else budget
            p.remaining -= take
            budget -= take
            sent += take
            if p.remaining == 0:
                q.popleft()
                delivered.append((cls, p.size, tti - p.arrival_tti))
        if sent:
            buf.transmitted[cls] += sent
            buf.occupancy[cls] -= sent
            buf.total -= sent
        if budget == 0:
            break
    return delivered
