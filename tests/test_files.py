"""The one atomic writer: a fresh temp file, renamed only on success."""

import os

import pytest

from treesum import files


def test_failure_inside_the_block_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with pytest.raises(KeyError):
        with files.atomic_output(target) as fh:
            fh.write("partial\n")
            raise KeyError("stop")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert target.read_text() == "old\n"


def test_a_taken_temp_name_fails_and_is_not_touched(tmp_path, monkeypatch):
    monkeypatch.setattr(files.secrets, "token_hex", lambda n: "taken")
    taken = tmp_path / "out.bin.taken.tmp"
    taken.write_bytes(b"someone else's")
    with pytest.raises(FileExistsError):
        with files.atomic_output(tmp_path / "out.bin", binary=True) as fh:
            fh.write(b"new")
    assert os.listdir(tmp_path) == ["out.bin.taken.tmp"]
    assert taken.read_bytes() == b"someone else's"

