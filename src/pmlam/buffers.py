"""Named work buffers that a training step reuses instead of allocating.

One step of the full model makes a dozen :func:`losses.batch_inner` passes,
each over (B, h) to (B, 3h) row arrays of several MB. Freshly allocated,
every such array is page-faulted in again on each pass; written into a
buffer that outlives the pass, it is not.
"""

import math

import numpy as np


class BufferPool:
    """Float64 buffers by name, each grown to the largest size asked for.

    :meth:`get` returns a C-contiguous view of the first ``prod(shape)``
    elements of the named buffer, so a smaller request (an epoch's shorter
    last batch) reuses the same memory. A view stays valid until the next
    :meth:`get` of the same name; the owner of a name decides how long that
    is. Functions that take an optional pool use a fresh one when given
    none, which makes every view they return a new array.

    A pool can also :meth:`lend` its buffers to another pool, whose
    :meth:`get` then returns views of those before any buffer of its own.
    """

    def __init__(self):
        self._buffers = {}
        self._borrowed = {}  # name -> another pool's buffer, see lend

    def get(self, name, shape):
        size = math.prod(shape)
        for buffers in (self._borrowed, self._buffers):
            buf = buffers.get(name)
            if buf is not None and buf.size >= size:
                return buf[:size].reshape(shape)
        buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def lend(self, other, names):
        """Have ``other`` use this pool's buffers: ``names`` maps ``other``'s names to this pool's.

        Replaces what ``other`` borrowed before. Where this pool has no
        buffer of a name, or ``other`` asks for more than the lent buffer
        holds, ``other`` makes a buffer of its own. The owner of both
        pools lends only buffers that are dead in this pool for as long as
        ``other`` uses them.
        """
        other._borrowed = {theirs: self._buffers[mine] for theirs, mine in names.items()
                           if mine in self._buffers}
