"""Bandwidth-adaptive, error-resilient exact-repair storage codes (MBR point).

A message of f_mbr field symbols is spread over n storage nodes so that

  * the message is recoverable from any k nodes,
  * a failed node is rebuilt exactly from any d helpers, for any d chosen
    at repair time from a set D,
  * both survive up to b adversarial nodes that may lie arbitrarily,
  * repair traffic meets the minimum possible total alpha*d/(d-2b).

Two repair schemes are provided: a compressed-projection scheme whose field
is certified per configuration (`repair1`), and a merge-based scheme over
small fields that needs p >= n+1 and certified per-group systems (`repair2`),
plus plain concatenation for b = 0 (`concat`).  `simnet` runs scripted
failure/repair/reconstruction scenarios against a simulated cluster.
"""

from .params import CodeParams, Derived, validate

__all__ = ["CodeParams", "Derived", "validate"]
__version__ = "0.1.0"
