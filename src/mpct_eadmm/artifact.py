"""Binary serialization of the offline solver data.

Little-endian layout: magic string, format version, dimension header, the
float64 payload arrays in declaration order (beta_hat blocks packed as upper
triangles), an optional warmstart-gain section, and a 64-bit truncated
SHA-256 checksum over everything before it. The format is bit-exact so that
repeated precomputation of the same configuration yields identical files.
"""

import hashlib
import struct

import numpy as np

from .errors import ArtifactError
from .offline import OfflineData, WarmstartGain

MAGIC = b"MPCT-EADMM\x00"
FORMAT_VERSION = 1
# Stage bound vectors of OfflineData, in artifact order.
BOUND_FIELDS = ("z_lb", "z_ub", "z_lb_s", "z_ub_s", "u_only_lb", "u_only_ub")


def _pack_array(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _triu_pack(block):
    n = block.shape[0]
    return np.concatenate([block[i, i:] for i in range(n)])


def _triu_unpack(flat, n):
    block = np.zeros((n, n))
    pos = 0
    for i in range(n):
        block[i, i:] = flat[pos : pos + n - i]
        pos += n - i
    return block


def save_offline(offline, path):
    """Write an OfflineData bundle to a binary artifact file."""
    n, m, N = offline.n, offline.m, offline.N
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<III", n, m, N)]
    arrays = [
        offline.H1_inv.flatten(order="F"),
        offline.H3_inv.flatten(order="F"),
        offline.M2.ravel(),
    ]
    arrays.extend(a.ravel() for a in offline.alphas)
    arrays.extend(_triu_pack(b) for b in offline.beta_hats)
    arrays.extend(getattr(offline, name) for name in BOUND_FIELDS)
    arrays.append(np.array([offline.rho_upper_bound, float(offline.rho_exceeds_bound)]))
    parts.extend(_pack_array(a) for a in arrays)
    if offline.warmstart is not None:
        ws = offline.warmstart
        parts.append(b"\x01")
        parts.append(_pack_array(ws.P_z2.ravel()))
        parts.append(_pack_array(ws.P_z3_head.ravel()))
        parts.append(_pack_array(ws.P_lambda_head.ravel()))
        parts.append(_pack_array(np.array([ws.support_residual, float(ws.singular_kkt)])))
    else:
        parts.append(b"\x00")
    payload = b"".join(parts)
    checksum = hashlib.sha256(payload).digest()[:8]
    with open(path, "wb") as fh:
        fh.write(payload + checksum)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, count):
        if self.pos + count > len(self.data):
            raise ArtifactError("artifact truncated")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def floats(self, count):
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()


def load_offline(path):
    """Read and checksum-verify an artifact file back into OfflineData."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 12 + 8:
        raise ArtifactError("artifact too short")
    payload, checksum = blob[:-8], blob[-8:]
    if hashlib.sha256(payload).digest()[:8] != checksum:
        raise ArtifactError("artifact checksum mismatch")
    rd = _Reader(payload)
    if rd.take(len(MAGIC)) != MAGIC:
        raise ArtifactError("bad magic string")
    (version,) = struct.unpack("<I", rd.take(4))
    if version != FORMAT_VERSION:
        raise ArtifactError(f"unsupported format version {version}")
    n, m, N = struct.unpack("<III", rd.take(12))
    nm = n + m
    H1_inv = rd.floats(nm * (N + 1)).reshape(nm, N + 1, order="F")
    H3_inv = rd.floats(nm * (N + 1)).reshape(nm, N + 1, order="F")
    M2 = rd.floats(nm * nm).reshape(nm, nm)
    alphas = [rd.floats(n * n).reshape(n, n) for _ in range(N - 1)]
    tri = n * (n + 1) // 2
    beta_hats = [_triu_unpack(rd.floats(tri), n) for _ in range(N)]
    bounds = {name: rd.floats(nm) for name in BOUND_FIELDS}
    bound, exceeds = rd.floats(2)
    has_ws = rd.take(1)
    warmstart = None
    if has_ws == b"\x01":
        P_z2 = rd.floats(nm * n).reshape(nm, n)
        P_z3_head = rd.floats(n * n).reshape(n, n)
        P_lambda_head = rd.floats(2 * n * n).reshape(2 * n, n)
        support_residual, singular = rd.floats(2)
        warmstart = WarmstartGain(
            P_z2=P_z2,
            P_z3_head=P_z3_head,
            P_lambda_head=P_lambda_head,
            support_residual=float(support_residual),
            singular_kkt=bool(singular),
        )
    return OfflineData(
        n=n,
        m=m,
        N=N,
        H1_inv=H1_inv,
        H3_inv=H3_inv,
        M2=M2,
        alphas=alphas,
        beta_hats=beta_hats,
        **bounds,
        rho_upper_bound=float(bound),
        rho_exceeds_bound=bool(exceeds),
        warmstart=warmstart,
    )
