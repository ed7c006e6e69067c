"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain text or token
lists, so the program under test only ever sees the generated inputs.
"""

P_REQ = 0.3  # chance that an event requests a chosen idle pair
P_ACK = 0.3  # chance that an event acknowledges a chosen pending pair


def pair_tokens(k):
    """Request and acknowledgement tokens of the k-pair server alphabet."""
    if k == 1:
        return ["req"], ["ack"]
    return [f"req{i}" for i in range(1, k + 1)], [f"ack{i}" for i in range(1, k + 1)]


def server_traffic(rng, k, n):
    """``n`` events of well-formed k-pair request/acknowledgement traffic.

    A pair is requested only while it is idle and acknowledged only while
    it is pending, so no pair is ever requested twice in a row and no
    monitor falls into its double-request sink.  Each event picks a pair
    uniformly; everything that is not a request or an ack is ``other``.
    """
    reqs, acks = pair_tokens(k)
    pending = [False] * k
    out = []
    for _ in range(n):
        i = rng.randrange(k)
        if rng.random() < (P_ACK if pending[i] else P_REQ):
            out.append(acks[i] if pending[i] else reqs[i])
            pending[i] = not pending[i]
        else:
            out.append("other")
    return out


def uniform_traffic(rng, k, n):
    """Uniform random tokens over the k-pair alphabet.

    This is the traffic behind the hand-measured baselines: it double-requests
    within a few events, after which every monitor idles in its sink state.
    """
    reqs, acks = pair_tokens(k)
    symbols = [s for pair in zip(reqs, acks) for s in pair] + ["other"]
    return [rng.choice(symbols) for _ in range(n)]


def long_stem_lassos(rng, count, budget):
    """Lassos over {1..4} whose ordering violation comes at a chosen loop
    iteration, straddling the limit engine's iteration budget.

    The stem writes the letters in blocks ``1^c1 2^c2 3^c3 4^c4`` with
    c1 >= c2 >= c3 >= c4, so every stem prefix respects the ordering.  The
    loop ``1 2 3 4 (j+1)`` lowers the margin c_j - c_(j+1) by one per
    iteration and leaves the others, so the first violating prefix falls in
    loop iteration m_j, the margin of pair j: the shape of ``1^1500 ; 1 2 2``.
    Margins are stratified over [budget/2, 3*budget/2), so half
    of the violations fall inside the budget and half beyond it, whatever
    the seed.  The flipping pair j cycles over 1, 2, 3 in seeded order.
    Returns the lassos as ``stem ; loop`` text, one per lasso.
    """
    spread = budget // 2
    pairs = [1 + i % 3 for i in range(count)]
    rng.shuffle(pairs)
    texts = []
    for i, j in enumerate(pairs):
        flip = budget - spread + int(2 * spread * (i + rng.random()) / count)
        margins = [rng.randint(0, 3) for _ in range(3)]
        margins[j - 1] = flip
        c4 = rng.randint(0, 3)
        counts = [c4 + sum(margins[m:]) for m in range(3)] + [c4]
        stem = " ".join(str(letter) for letter in range(1, 5) for _ in range(counts[letter - 1]))
        loop = f"1 2 3 4 {j + 1}"
        texts.append(f"{stem} ; {loop}")
    return texts
