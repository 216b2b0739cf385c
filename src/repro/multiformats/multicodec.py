"""Multicodec: the self-describing content-type table.

The multicodec identifier inside a CID (Figure 1) states how the
addressed bytes are encoded. We carry the subset of the registered table
that IPFS itself uses: raw leaves, dag-pb (UnixFS Merkle-DAG nodes),
dag-cbor/dag-json (IPLD), and libp2p-key (IPNS names).
"""

from __future__ import annotations

from repro.errors import CidError

#: Registered multicodec codes (from the multiformats table).
CODEC_RAW = 0x55
CODEC_DAG_PB = 0x70
CODEC_DAG_CBOR = 0x71
CODEC_DAG_JSON = 0x0129
CODEC_LIBP2P_KEY = 0x72

_NAME_TO_CODE = {
    "raw": CODEC_RAW,
    "dag-pb": CODEC_DAG_PB,
    "dag-cbor": CODEC_DAG_CBOR,
    "dag-json": CODEC_DAG_JSON,
    "libp2p-key": CODEC_LIBP2P_KEY,
}

_CODE_TO_NAME = {code: name for name, code in _NAME_TO_CODE.items()}


def codec_code(name: str) -> int:
    """Map a codec name to its registered code.

    >>> hex(codec_code('dag-pb'))
    '0x70'
    """
    try:
        return _NAME_TO_CODE[name]
    except KeyError:
        raise CidError(f"unknown multicodec name: {name}") from None


def codec_name(code: int) -> str:
    """Map a registered code back to its codec name."""
    try:
        return _CODE_TO_NAME[code]
    except KeyError:
        raise CidError(f"unknown multicodec code: {code:#x}") from None
