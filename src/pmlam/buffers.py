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
    """

    def __init__(self):
        self._buffers = {}

    def get(self, name, shape):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)
