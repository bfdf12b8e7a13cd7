"""Reduction operators for node-property maps.

``Reduce()`` takes an associative, commutative function (Section 3.1). The
named instances below cover every algorithm in the paper: ``MIN`` for the
connected-components family, ``SUM`` for Louvain/Leiden cluster totals,
``PAIR_MIN``/``PAIR_MAX`` for lexicographic (weight, id) reductions in
Boruvka MSF and priority MIS, ``LOGICAL_OR`` for the work-done reducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class ReduceOp:
    """A named associative+commutative binary operator.

    ``ufunc``, when set, is the numpy equivalent used by the bulk execution
    path to fold numeric batches; its unbuffered ``.at`` form applies
    duplicate indices sequentially, so folds are bit-identical to the
    scalar left-to-right application of ``fn``. Operators without a ufunc
    (tuple-valued, boolean short-circuit) fall back to per-item ``fn``.
    """

    name: str
    fn: Callable[[Any, Any], Any]
    ufunc: Any = field(default=None, compare=False)

    def __call__(self, left: Any, right: Any) -> Any:
        return self.fn(left, right)


MIN = ReduceOp("min", min, ufunc=np.minimum)
MAX = ReduceOp("max", max, ufunc=np.maximum)
SUM = ReduceOp("sum", lambda a, b: a + b, ufunc=np.add)
LOGICAL_OR = ReduceOp("or", lambda a, b: bool(a) or bool(b))
LOGICAL_AND = ReduceOp("and", lambda a, b: bool(a) and bool(b))
# Tuples compare lexicographically, so min/max work directly; the aliases
# exist to make call sites state their intent (reduce-by-(key, payload)).
PAIR_MIN = ReduceOp("pair_min", min)
PAIR_MAX = ReduceOp("pair_max", max)
# Last-write-wins "reduction": rebuild-style operators (PageRank's rank
# rebuild) overwrite the property rather than fold into it.
OVERWRITE = ReduceOp("overwrite", lambda old, new: new)
