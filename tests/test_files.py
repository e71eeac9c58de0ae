import os
import re

import pytest

from conftest import CASES_DIR
from gridprompt import files
from gridprompt.files import read_utf8, write_utf8
from gridprompt.matpower_io import load_case


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_case_with_other_line_ends_loads_equal(case9, tmp_path, newline):
    path = tmp_path / "case9.m"
    text = (CASES_DIR / "case9.m").read_bytes().decode("utf-8")
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert read_utf8(path) == text
    assert load_case(path) == case9


def test_file_larger_than_a_chunk_is_read_whole(tmp_path):
    # a two-byte character straddles the first chunk boundary and a CRLF the second
    head = "x" * (files._CHUNK - 1)
    tail = "é\r" + "y" * (files._CHUNK - 3) + "\r\nz" * 5
    path = tmp_path / "big.txt"
    path.write_bytes((head + tail).encode("utf-8"))
    assert os.path.getsize(path) > 2 * files._CHUNK
    assert read_utf8(path) == head + tail.replace("\r\n", "\n").replace("\r", "\n")


def test_short_writes_are_finished(tmp_path, monkeypatch):
    real_write, calls = os.write, []

    def three_bytes(fd, data):
        calls.append(len(data))
        return real_write(fd, data[:3])

    monkeypatch.setattr(files.os, "write", three_bytes)
    text = '{"name": "José"}\nline two\n'
    path = tmp_path / "out.json"
    write_utf8(path, text)
    monkeypatch.undo()
    assert path.read_bytes() == text.encode("utf-8")
    assert len(calls) == -(-len(text.encode("utf-8")) // 3)


def test_writer_writes_exact_bytes_and_truncates(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"an older, longer text\r\n" * 10)
    write_utf8(path, "a\nb\n")
    assert path.read_bytes() == b"a\nb\n"
    write_utf8(path, "")
    assert path.read_bytes() == b""


class Refused(Exception):
    pass


@pytest.mark.parametrize("damage", ["missing", "directory", "latin-1"])
def test_reader_errors_name_the_file(tmp_path, damage):
    path = tmp_path / "file.m"
    if damage == "directory":
        path.mkdir()
    elif damage == "latin-1":
        path.write_bytes(b"% contributed by Jos\xe9\n")
    with pytest.raises(OSError, match=f"^{re.escape(str(path))}: "):
        read_utf8(path)
    with pytest.raises(Refused, match=f"^{re.escape(str(path))}: "):
        read_utf8(path, Refused)
