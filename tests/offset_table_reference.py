"""The offset table's row loop, kept as the oracle of
``discretize.offset_table``: each row of the quotient array placed on the
points by its own ``nearest_index`` call, the sentinel ``points.size``
elsewhere, and ``InfeasibleError`` where two offsets give one target the
same point."""

import numpy as np

from varelax.discretize import nearest_index
from varelax.errors import InfeasibleError


def offset_table_reference(quotients, points):
    top, sentinel = quotients.shape[0] // 2, points.size
    table = np.full(quotients.shape, sentinel, np.min_scalar_type(sentinel))
    for row, q in zip(table, quotients):
        admissible = np.isfinite(q)
        row[admissible] = nearest_index(points, q[admissible])
    ordered = np.sort(table, axis=0)
    if np.any((ordered[1:] == ordered[:-1]) & (ordered[1:] < sentinel)):
        raise InfeasibleError("two state nodes are closer than one step's quotients resolve")
    return top, table
