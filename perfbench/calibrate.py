"""Host-speed reference: a fixed piece of work timed around and during certificates.

The machines this benchmark runs on are shared: the speed a process gets
swings by a factor of two within seconds and drifts by a third within
minutes, and wall times of the same code swing and drift with it.  To
take that out, the worker times a fixed reference *chunk* of work

* in a block of ``CHUNKS_PER_BLOCK`` chunks before the first certificate
  and after each one, and
* once every ``PERIOD_S`` of wall time while a certificate runs, from a
  ``SIGALRM`` handler (``Sampler``), so that a long certificate is
  measured against the host speed over its whole duration.  The time the
  handler takes is subtracted from the certificate's latency.

The run reports every latency scaled to a nominal host on which one
chunk takes ``NOMINAL_CHUNK_S``:

    scaled latency = latency * NOMINAL_CHUNK_S / mean chunk time around it

The chunk is the benchmark's own code (``fractions`` only, never biwkit
or mpmath, so the handler cannot re-enter a library the certificate is
in), and a change to the program cannot change it.  Like the program's
exact layer, it multiplies polynomials with ``Fraction`` coefficients.
Raw wall times and chunk times are kept in every results file.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter

# Chunk time of the nominal host: the typical speed of a 2-core x86-64
# virtual machine running Python 3.11.
NOMINAL_CHUNK_S = 0.002
CHUNKS_PER_BLOCK = 4
PERIOD_S = 0.05

_rng = random.Random(20261018)
_A = [Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(9)]
_B = [Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(9)]


def _poly_product(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def chunk():
    """One unit of reference work."""
    return _poly_product(_poly_product(_A, _B), _A), _poly_product(_poly_product(_B, _A), _B)


def block():
    """Mean time of one chunk over a block of CHUNKS_PER_BLOCK chunks."""
    start = perf_counter()
    for _ in range(CHUNKS_PER_BLOCK):
        chunk()
    return (perf_counter() - start) / CHUNKS_PER_BLOCK


class Sampler:
    """Times one chunk every PERIOD_S of wall time between start() and stop()."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # time spent in the handler, chunk and bookkeeping

    def _handler(self, signum, frame):
        entered = perf_counter()
        chunk()
        done = perf_counter()
        self.samples.append(done - entered)
        self.spent_s += perf_counter() - entered

    def start(self):
        self.samples = []
        self.spent_s = 0.0
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples, self.spent_s
