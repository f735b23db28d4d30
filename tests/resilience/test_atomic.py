"""Atomic write helpers: all-or-nothing file replacement.

The contract every durable artifact in the repo rides on (profiles,
bundles, run-store entries): a reader never observes a torn file —
only the old content or the new content.
"""

import json
import os

import pytest

from repro.resilience import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.resilience.atomic import atomic_writer


class TestAtomicWriter:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_writer(path) as fh:
            fh.write("hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_writer(path) as fh:
            fh.write("new")
        assert path.read_text() == "new"

    def test_exception_preserves_previous_content(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("precious")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as fh:
                fh.write("half-writ")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "precious"

    def test_exception_leaves_no_temp_droppings(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as fh:
                fh.write("x")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_rejects_read_modes(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_writer(tmp_path / "f", mode="r"):
                pass

    def test_temp_file_lives_in_target_directory(self, tmp_path):
        # os.replace is only atomic within one filesystem; staging in
        # the target's own directory guarantees that.
        path = tmp_path / "sub" / "out.txt"
        path.parent.mkdir()
        with atomic_writer(path) as fh:
            names = os.listdir(path.parent)
            assert len(names) == 1 and names[0] != "out.txt"
            fh.write("ok")
        assert os.listdir(path.parent) == ["out.txt"]


class TestHelpers:
    def test_write_text_and_bytes(self, tmp_path):
        atomic_write_text(tmp_path / "t.txt", "text")
        atomic_write_bytes(tmp_path / "b.bin", b"\x00\x01")
        assert (tmp_path / "t.txt").read_text() == "text"
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"

    def test_write_json_is_stable(self, tmp_path):
        doc = {"b": 2, "a": [1, 2]}
        atomic_write_json(tmp_path / "d.json", doc)
        atomic_write_json(tmp_path / "d2.json", dict(reversed(doc.items())))
        assert (tmp_path / "d.json").read_bytes() == \
            (tmp_path / "d2.json").read_bytes()
        assert json.loads((tmp_path / "d.json").read_text()) == doc
        assert (tmp_path / "d.json").read_text().endswith("\n")
