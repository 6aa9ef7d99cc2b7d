"""The colon's reference route: syzygies under a dominating block order.

The pipeline computes a colon as one intersection (groebner.
module_quotient_engine); these functions compute the same module by a
second, independent route, which the tests check it against.
"""

from theta2.groebner import MonomialOrder, buchberger_engine


def convert_element(elem: dict, src: MonomialOrder, dst: MonomialOrder,
                    comp_offset: int = 0, block: int = 0) -> dict:
    """Re-encode an engine element between orders that differ in rank; the
    keys of the dst components below block get dst.fbit, which puts them
    above every other key as a dominating block."""
    out = {}
    for key, c in elem.items():
        enc, comp = src.split_key(key)
        comp += comp_offset
        k = dst.term_key(dst.encode_mono(src.decode_mono(enc)), comp)
        out[k | dst.fbit if comp < block else k] = c
    return out


def syzygy_engine(targets: list[dict], kernel_of: list[dict], order: MonomialOrder,
                  field) -> list[dict]:
    """Generators of {c in R^s : sum c_i targets_i in <kernel_of>}.

    targets live in a rank-r free module; the result lives in rank s = number
    of targets.  Computed in rank r + s, where the first r components
    dominate as a block (their keys carry fbit), so basis elements
    supported purely in the second block are exactly the syzygies.
    """
    r = order.rank
    s = len(targets)
    ext = MonomialOrder(order.nvars, rank=r + s)
    gens = []
    for i, tgt in enumerate(targets):
        e = convert_element(tgt, order, ext, block=r)
        e[ext.term_key(ext.one, r + i)] = field.convert(1)
        gens.append(e)
    for kg in kernel_of:
        gens.append(convert_element(kg, order, ext, block=r))
    basis = buchberger_engine(gens, ext, field)
    sy_order = MonomialOrder(order.nvars, rank=s)
    out = []
    for e in basis:
        _, comp = ext.split_key(max(e))
        if comp >= r:
            out.append(convert_element(e, ext, sy_order, comp_offset=-r))
    return out
