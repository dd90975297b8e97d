import numpy as np
import pytest

from flowforge.atomic import atomic_open, atomic_write


def test_text_and_bytes_match_plain_writes(tmp_path):
    text = "a: 1\nb: é\n"
    atomic_write(tmp_path / "a.yaml", text)
    (tmp_path / "b.yaml").write_text(text, encoding="utf-8")
    assert (tmp_path / "a.yaml").read_bytes() == (tmp_path / "b.yaml").read_bytes()
    assert atomic_write(tmp_path / "c.bin", b"\x00\x01") == tmp_path / "c.bin"
    assert (tmp_path / "c.bin").read_bytes() == b"\x00\x01"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.yaml", "b.yaml",
                                                         "c.bin"]


def test_npy_through_handle_matches_np_save(tmp_path):
    mask = (np.arange(24).reshape(2, 3, 4) % 3 == 0).astype(np.uint8)
    with atomic_open(tmp_path / "a.npy") as handle:
        np.save(handle, mask)
    np.save(tmp_path / "b.npy", mask)
    assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()


def test_failed_write_keeps_previous_file(tmp_path):
    target = tmp_path / "state.txt"
    atomic_write(target, "old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(target, "w") as handle:
            handle.write("half of the new")
            raise RuntimeError("interrupted")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["state.txt"]
