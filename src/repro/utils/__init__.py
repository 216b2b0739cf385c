"""Low-level utilities shared across the repro library.

This subpackage holds protocol-agnostic building blocks:

- :mod:`repro.utils.varint` — unsigned LEB128 varints used by
  multiformats framing.
- :mod:`repro.utils.baseenc` — the base encodings referenced by
  multibase (base16/32/36/58btc/64 and friends).
- :mod:`repro.utils.stats` — percentile/CDF/correlation helpers used by
  the measurement pipeline.
- :mod:`repro.utils.rng` — deterministic random-stream derivation so
  that experiments are reproducible bit for bit.
- :mod:`repro.utils.columns` — the typecode of an integer index column
  from the bound of its values.
"""

from repro.utils.baseenc import (
    base16_decode,
    base16_encode,
    base32_decode,
    base32_encode,
    base36_decode,
    base36_encode,
    base58btc_decode,
    base58btc_encode,
    base64_decode,
    base64_encode,
    base64url_decode,
    base64url_encode,
)
from repro.utils.rng import derive_rng, rng_from_seed
from repro.utils.stats import (
    Cdf,
    pearson_correlation,
    percentile,
    percentiles,
)
from repro.utils.varint import decode_varint, encode_varint, read_varint

__all__ = [
    "Cdf",
    "base16_decode",
    "base16_encode",
    "base32_decode",
    "base32_encode",
    "base36_decode",
    "base36_encode",
    "base58btc_decode",
    "base58btc_encode",
    "base64_decode",
    "base64_encode",
    "base64url_decode",
    "base64url_encode",
    "decode_varint",
    "derive_rng",
    "encode_varint",
    "pearson_correlation",
    "percentile",
    "percentiles",
    "read_varint",
    "rng_from_seed",
]
