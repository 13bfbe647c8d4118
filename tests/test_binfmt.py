"""The shared artifact framing: loader checks on malformed headers and blocks,
and property tests that mutate a small valid file of each format."""
import ast
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crdi
from crdi import binfmt
from crdi.diffusion import MAX_T, NoiseNet, eps_theta, load_checkpoint, save_checkpoint
from crdi.errors import FormatError
from crdi.numerics import RngStream
from crdi.schedules import RigidityMap
from crdi.sge import SgeSet, load_sge, save_sge
from crdi.workbench.tensor_io import read_tensor, write_tensor


def _patched(path, offset: int, value: int):
    """path with the u32 at offset replaced by value."""
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(blob))
    return path


def _tensor_file(path):
    write_tensor(path, np.arange(6.0).reshape(2, 3))
    return path


def _checkpoint_file(path):
    # widths [34, 4, 2] at bytes 16, 20, 24; weights from byte 28
    save_checkpoint(path, NoiseNet.init(2, 10, [4], RngStream(0, "init")))
    return path


def _sge_file(path):
    # N, eta, d, t_lo, t_hi at bytes 8..24; segments from byte 28
    segments = 0.5 * np.arange(8.0).reshape(2, 2, 2)
    meta = [{"final_loss": 0.5, "iterations": 3}, {"final_loss": 1.0, "iterations": 3}]
    save_sge(path, SgeSet(segments, RigidityMap(eta=2, t_lo=0, t_hi=10), meta))
    return path


# ---------------------------------------------------------------- the one writer

def test_write_file_replaces_links_and_symlinks(tmp_path):
    old, path, link = tmp_path / "old", tmp_path / "a", tmp_path / "b"
    binfmt.write_file(old, b"old")
    os.link(old, link)
    path.symlink_to(old)
    binfmt.write_file(path, b"ab", np.arange(2.0), np.array([[1, 2]], dtype=np.uint8))
    assert path.read_bytes() == b"ab" + np.arange(2.0).tobytes() + bytes([1, 2])
    assert not path.is_symlink() and old.read_bytes() == link.read_bytes() == b"old"
    binfmt.write_file(link, b"new")
    assert old.read_bytes() == b"old" and not os.path.samefile(old, link)


def _file_writes(tree):
    """Line numbers of the calls in tree that write a file: write_text,
    write_bytes, tofile, or an open whose mode is not a constant read mode."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        if isinstance(call.func, ast.Name):        # open(path, mode)
            name, mode = call.func.id, call.args[1:2]
        elif isinstance(call.func, ast.Attribute):   # Path(path).open(mode)
            name, mode = call.func.attr, call.args[:1]
        else:
            continue
        mode += [k.value for k in call.keywords if k.arg == "mode"]
        if name in ("write_text", "write_bytes", "tofile") or name == "open" and not all(
                isinstance(m, ast.Constant) and not set(str(m.value)) & set("wax+")
                for m in mode):
            yield call.lineno


def test_write_file_is_the_only_writer_in_src():
    inside, outside = [], []
    for path in sorted(Path(crdi.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        body = {line for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "write_file"
                for line in range(node.lineno, node.end_lineno + 1)}
        for line in _file_writes(tree):
            (inside if line in body else outside).append(f"{path.name}:{line}")
    assert len(inside) == 1 and inside[0].startswith("binfmt.py:")   # the scan sees its open
    assert outside == []


# ---------------------------------------------------------------- loader checks

def test_tensor_zero_dimension_rejected(tmp_path):
    path = tmp_path / "t.crdt"
    path.write_bytes(b"CRDT" + struct.pack("<IIII", 1, 2, 3, 0))
    with pytest.raises(FormatError, match="byte 16"):
        read_tensor(path)


def test_tensor_empty_not_written(tmp_path):
    with pytest.raises(FormatError, match="not representable"):
        write_tensor(tmp_path / "t.crdt", np.zeros((3, 0)))


def test_checkpoint_zero_width_rejected(tmp_path):
    path = _patched(_checkpoint_file(tmp_path / "m.crdn"), 20, 0)
    with pytest.raises(FormatError, match="byte 20"):
        load_checkpoint(path)


def test_checkpoint_input_width_must_carry_time_features(tmp_path):
    path = _patched(_checkpoint_file(tmp_path / "m.crdn"), 16, 33)
    with pytest.raises(FormatError, match="input width 33 at byte 16 != d"):
        load_checkpoint(path)


def test_checkpoint_T_above_limit_rejected(tmp_path):
    path = _patched(_checkpoint_file(tmp_path / "m.crdn"), 8, MAX_T + 1)
    with pytest.raises(FormatError, match=f"T={MAX_T + 1}.*byte 8"):
        load_checkpoint(path)


def test_checkpoint_non_finite_weights_rejected(tmp_path):
    path = tmp_path / "m.crdn"
    blob = bytearray(_checkpoint_file(path).read_bytes())
    blob[36:44] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="non-finite.*byte 28"):
        load_checkpoint(path)


def test_sge_zero_eta_rejected(tmp_path):
    path = _patched(_sge_file(tmp_path / "s.crds"), 12, 0)
    with pytest.raises(FormatError, match="byte 12"):
        load_sge(path)


@pytest.mark.parametrize("t_lo", [10, 11])
def test_sge_empty_window_rejected(tmp_path, t_lo):
    path = _patched(_sge_file(tmp_path / "s.crds"), 20, t_lo)
    with pytest.raises(FormatError, match=f"window \\({t_lo}, 10\\) at byte 20"):
        load_sge(path)


def test_sge_non_finite_segments_rejected(tmp_path):
    path = tmp_path / "s.crds"
    blob = bytearray(_sge_file(path).read_bytes())
    blob[28 + 8 * 5:28 + 8 * 6] = struct.pack("<d", np.inf)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="non-finite.*byte 28"):
        load_sge(path)


@pytest.mark.parametrize("metas", [[{}, 3], [[], {}], [{}, None]])
def test_sge_metadata_entries_must_be_objects(tmp_path, metas):
    path = tmp_path / "s.crds"
    floats_end = 28 + 8 * 8
    path.write_bytes(_sge_file(path).read_bytes()[:floats_end] + json.dumps(metas).encode())
    with pytest.raises(FormatError, match=f"byte {floats_end}.*2 entries"):
        load_sge(path)


# ---------------------------------------------------------------- mutations

def _valid_tensor(tensor):
    assert tensor.ndim >= 1 and tensor.size > 0
    assert np.isfinite(tensor).all()


def _valid_checkpoint(net):
    assert net.frozen and 1 <= net.T <= MAX_T
    with np.errstate(all="ignore"):
        assert eps_theta(net, np.zeros(net.d), 1).shape == (net.d,)


def _valid_sge(sge_set):
    assert np.isfinite(sge_set.segments).all()
    assert all(isinstance(m, dict) for m in sge_set.meta)


FORMATS = {
    "crdt": (_tensor_file, read_tensor, _valid_tensor),
    "crdn": (_checkpoint_file, load_checkpoint, _valid_checkpoint),
    "crds": (_sge_file, load_sge, _valid_sge),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    return root, {ext: make(root / f"valid.{ext}").read_bytes()
                  for ext, (make, _, _) in FORMATS.items()}


def _load_mutated(root, ext: str, blob: bytes):
    """The loader's result on blob: a valid object, or FormatError and nothing else."""
    _, load, check = FORMATS[ext]
    path = root / f"mutated.{ext}"
    # a fresh file: rewriting one in place pays a flush to disk on close
    path.unlink(missing_ok=True)
    path.write_bytes(blob)
    try:
        obj = load(path)
    except FormatError as exc:
        assert "byte" in str(exc) or "offset" in str(exc), exc
        return
    check(obj)


@pytest.mark.parametrize("ext", sorted(FORMATS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_truncated_file_fails_cleanly(valid_files, ext, data):
    root, blobs = valid_files
    cut = data.draw(st.integers(0, len(blobs[ext]) - 1))
    _load_mutated(root, ext, blobs[ext][:cut])


@pytest.mark.parametrize("ext", sorted(FORMATS))
@settings(deadline=None, max_examples=40)
@given(extra=st.binary(min_size=1, max_size=48))
def test_extended_file_fails_cleanly(valid_files, ext, extra):
    root, blobs = valid_files
    _load_mutated(root, ext, blobs[ext] + extra)


@pytest.mark.parametrize("ext", sorted(FORMATS))
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_flipped_byte_fails_cleanly(valid_files, ext, data):
    root, blobs = valid_files
    blob = bytearray(blobs[ext])
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] ^= data.draw(st.integers(1, 255))
    _load_mutated(root, ext, bytes(blob))


@pytest.mark.parametrize("ext", sorted(FORMATS))
def test_every_header_bit_flip_fails_cleanly(valid_files, ext):
    # the header holds every size and the window; cover each of its bits
    root, blobs = valid_files
    for at in range(20 if ext == "crdt" else 28):
        for bit in range(8):
            blob = bytearray(blobs[ext])
            blob[at] ^= 1 << bit
            _load_mutated(root, ext, bytes(blob))
