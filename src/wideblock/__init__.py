"""Wide-block tweakable enciphering schemes with attacks and bound analysis."""

from .blockcipher import AesCipher, BlockCipher
from .field import FieldElement
from .modes import (
    MXCBV1,
    MXCBV2,
    XCBV1,
    XCBV2,
    Mode,
    TesKeySet,
    derive_keys_v1,
    derive_keys_v2,
    hctr_decrypt,
    hctr_encrypt,
    hctr_keys,
    inject_subkeys,
    xcb_decrypt,
    xcb_encrypt,
)
from .polyhash import BitString

__version__ = "0.1.0"

__all__ = [
    "AesCipher",
    "BitString",
    "BlockCipher",
    "FieldElement",
    "MXCBV1",
    "MXCBV2",
    "Mode",
    "TesKeySet",
    "XCBV1",
    "XCBV2",
    "derive_keys_v1",
    "derive_keys_v2",
    "hctr_decrypt",
    "hctr_encrypt",
    "hctr_keys",
    "inject_subkeys",
    "xcb_decrypt",
    "xcb_encrypt",
]
