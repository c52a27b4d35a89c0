"""Binary offline-artifact serialization tests."""

import hashlib
import struct

import numpy as np
import pytest

from mpct_eadmm.artifact import MAGIC, load_offline, save_offline
from mpct_eadmm.errors import ArtifactError
from mpct_eadmm.offline import build_offline
from mpct_eadmm.pendulum import pendulum_problem
from mpct_eadmm.problem import problem_fingerprint
from mpct_eadmm.solver import eadmm_solve


def assert_offline_equal(a, b):
    np.testing.assert_array_equal(a.H1_inv, b.H1_inv)
    np.testing.assert_array_equal(a.H3_inv, b.H3_inv)
    np.testing.assert_array_equal(a.M2, b.M2)
    assert len(a.alphas) == len(b.alphas)
    for x, y in zip(a.alphas, b.alphas):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(a.beta_hats, b.beta_hats):
        np.testing.assert_array_equal(np.triu(x), np.triu(y))
    for name in ("box_lb", "box_ub"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.rho_upper_bound == b.rho_upper_bound
    assert a.rho_exceeds_bound == b.rho_exceeds_bound
    assert a.fingerprint == b.fingerprint


def test_round_trip(tmp_path, problem, offline):
    path = tmp_path / "pendulum.mpct"
    save_offline(offline, path)
    loaded = load_offline(path)
    assert_offline_equal(offline, loaded)
    ws, lws = offline.warmstart, loaded.warmstart
    np.testing.assert_array_equal(ws.P_z2, lws.P_z2)
    np.testing.assert_array_equal(ws.P_z3_head, lws.P_z3_head)
    np.testing.assert_array_equal(ws.P_lambda_head, lws.P_lambda_head)
    assert loaded.fingerprint == problem_fingerprint(problem)


def test_round_trip_without_warmstart(tmp_path):
    problem = pendulum_problem(N=5)
    offline = build_offline(problem, with_warmstart=False)
    path = tmp_path / "nw.mpct"
    save_offline(offline, path)
    loaded = load_offline(path)
    assert_offline_equal(offline, loaded)
    assert loaded.warmstart is None


def test_derived_arrays_bit_identical_after_reload(tmp_path):
    for N in (2, 100):
        offline = build_offline(pendulum_problem(N=N))
        path = tmp_path / f"derived{N}.mpct"
        save_offline(offline, path)
        loaded = load_offline(path)
        for name in ("band", "box_lb", "box_ub"):
            a, b = getattr(offline, name), getattr(loaded, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, N)


@pytest.mark.parametrize("N", [2, 12, 100])
def test_built_and_loaded_data_share_layouts_and_iterates(tmp_path, N):
    """The kernel's operands are in C order and the band in Fortran order, built or loaded.

    Both give byte-identical iterates, and save -> load -> save gives the
    same bytes.
    """
    problem = pendulum_problem(N=N)
    built = build_offline(problem)
    path, again = tmp_path / "a.mpct", tmp_path / "b.mpct"
    save_offline(built, path)
    loaded = load_offline(path)
    save_offline(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    for data in (built, loaded):
        for name in ("H1_inv", "H3_inv", "M2", "box_lb", "box_ub"):
            assert getattr(data, name).flags.c_contiguous, name
        assert data.band.flags.f_contiguous
    x, r = np.array([0.1, -0.2, 1.0]), np.zeros(problem.n + problem.m)
    a, b = eadmm_solve(built, problem, x, r), eadmm_solve(loaded, problem, x, r)
    assert a.iterations == b.iterations and a.residual_inf == b.residual_inf
    for name in ("z1", "z2", "z3", "lam"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_deterministic_bytes(tmp_path, offline):
    p1, p2 = tmp_path / "a.mpct", tmp_path / "b.mpct"
    save_offline(offline, p1)
    save_offline(offline, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checksum_mismatch(tmp_path, offline):
    path = tmp_path / "c.mpct"
    save_offline(offline, path)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ArtifactError):
        load_offline(path)


def test_truncated_and_bad_magic(tmp_path, offline):
    path = tmp_path / "d.mpct"
    save_offline(offline, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:20])
    with pytest.raises(ArtifactError):
        load_offline(path)
    tampered = b"NOT-A-MAGIC" + blob[11:-8]
    path.write_bytes(tampered + hashlib.sha256(tampered).digest()[:8])
    with pytest.raises(ArtifactError):
        load_offline(path)


def test_format_v1_rejected(tmp_path, offline):
    path = tmp_path / "v1.mpct"
    save_offline(offline, path)
    blob = path.read_bytes()
    at = len(MAGIC)
    old = blob[:at] + struct.pack("<I", 1) + blob[at + 4 : -8]
    path.write_bytes(old + hashlib.sha256(old).digest()[:8])
    with pytest.raises(ArtifactError, match="unsupported format version 1"):
        load_offline(path)
