"""The wire codec's old import path.

The codec lives in :mod:`repro.spider.codec`, beside the messages it
encodes.  These are the names ``benchmarks/e2e`` imports from here.
"""

from ..spider.codec import CodecError, decode_message, encode_message

__all__ = ["CodecError", "decode_message", "encode_message"]
