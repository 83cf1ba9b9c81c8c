"""The log entry encoding's old import path.

The canonical entry layout lives in :mod:`repro.spider.log`, beside the
hash chain that covers it.  This is the name ``benchmarks/e2e``
imports from here.
"""

from ..spider.log import encode_log_entry

__all__ = ["encode_log_entry"]
