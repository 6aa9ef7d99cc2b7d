"""The balanced-block walk over sets and dicts, kept as the reference for
thetaring._balanced_blocks, which counts the even labels in packed bit
fields instead."""

from theta2 import chars


def balanced_blocks_reference() -> list[tuple[frozenset[int], ...]]:
    """Blocks of one decomposition per odd label covering each even label
    exactly three times."""
    decos = {i: chars.five_term_decompositions(i) for i in range(1, 7)}
    found: list[tuple[frozenset[int], ...]] = []

    def walk(idx: int, chosen: list[frozenset[int]], counts: dict[int, int]):
        if idx == 7:
            found.append(tuple(chosen))
            return
        for d in decos[idx]:
            if any(counts[k] + 1 > 3 for k in d):
                continue
            for k in d:
                counts[k] += 1
            chosen.append(d)
            walk(idx + 1, chosen, counts)
            chosen.pop()
            for k in d:
                counts[k] -= 1

    walk(1, [], {k: 0 for k in range(1, 11)})
    return [b for b in found
            if all(sum(k in d for d in b) == 3 for k in range(1, 11))]
