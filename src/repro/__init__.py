"""repro: a reproduction of "Tradeoffs Between False Sharing and
Aggregation in Software Distributed Shared Memory" (Amza et al.,
PPoPP 1997).

The package implements a TreadMarks-style page-based software DSM --
lazy release consistency with a multiple-writer twin/diff protocol --
over a deterministic simulated cluster, together with the paper's eight
applications, its Section-5.3 instrumentation (useful/useless messages
and data, false-sharing signatures), static consistency-unit aggregation
(Section 3), and the dynamic page-group aggregation algorithm
(Section 4).

Entry points:

* :mod:`repro.core` -- the public DSM API (``TreadMarks``, ``Proc``,
  ``SharedArray``, ``SimConfig``).
* :mod:`repro.apps` -- the application suite.
* :mod:`repro.bench` -- the experiment harness regenerating the paper's
  Table 1 and Figures 1-3.
"""

__version__ = "1.0.0"
