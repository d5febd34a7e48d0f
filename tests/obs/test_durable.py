"""The shared artifact channel: durable writer, atomic replace, reader."""

import json
import os

import pytest

from repro.errors import ConfigurationError, parse_knob
from repro.obs.durable import (
    DurableJsonlWriter,
    GlobalArtifact,
    JsonlArtifact,
    replace_atomic,
    shard_path,
)
from repro.obs.spans import JsonlShards


# ----------------------------------------------------------------------
# DurableJsonlWriter durability
# ----------------------------------------------------------------------
def test_writer_close_flushes_and_is_idempotent(tmp_path):
    path = tmp_path / "tl.jsonl"
    writer = DurableJsonlWriter(str(path), finalize=True)
    writer.write_doc({"rec": "meta", "run": 1})
    writer.close()
    writer.close()  # safe to call twice
    header, record = path.read_text().splitlines()
    assert "provenance" in json.loads(header)
    assert json.loads(record) == {"rec": "meta", "run": 1}
    writer.write_doc({"rec": "key"})  # post-close writes are dropped, not errors
    assert path.read_text().count("\n") == 2  # provenance header + record


def test_writer_context_manager(tmp_path):
    path = tmp_path / "tl.jsonl"
    with DurableJsonlWriter(str(path), finalize=True) as writer:
        writer.write_doc({"rec": "meta"})
    lines = path.read_text().splitlines()
    assert "provenance" in json.loads(lines[0])
    assert lines[1].startswith('{"rec":"meta"}')


def test_writer_close_in_foreign_pid_keeps_file(tmp_path):
    # A writer inherited across fork must never flush the parent's buffer:
    # close() in a "different" process is a no-op that keeps the handle.
    writer = DurableJsonlWriter(str(tmp_path / "tl.jsonl"), finalize=True)
    writer._pid = os.getpid() + 1
    writer.close()
    assert writer._file is not None
    writer._pid = os.getpid()
    writer.close()


# ----------------------------------------------------------------------
# Atomic replace
# ----------------------------------------------------------------------
def test_replace_atomic_failure_keeps_old_content(tmp_path):
    path = tmp_path / "shard.jsonl"
    path.write_text("old\n")

    def explode(handle):
        handle.write("half")
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError):
        replace_atomic(str(path), explode)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["shard.jsonl"]  # no stray *.tmp
    replace_atomic(str(path), lambda handle: handle.write("new\n"))
    assert path.read_text() == "new\n"


# ----------------------------------------------------------------------
# Lazy file-or-memory artifacts and their process-wide activation
# ----------------------------------------------------------------------
def test_artifact_opens_lazily_and_reshards(tmp_path):
    base = str(tmp_path / "a.jsonl")
    artifact = JsonlArtifact(base)
    assert not os.path.exists(base)  # idle artifacts leave no file
    writer = artifact.writer()
    assert os.path.exists(base) and artifact.writer() is writer
    artifact.reshard(4)
    assert artifact.path == shard_path(base, 4) == str(tmp_path / "a.4.jsonl")
    assert artifact.writer() is not writer
    assert os.path.exists(artifact.path)
    artifact.close()
    writer.close()
    assert JsonlArtifact(None).writer() is None  # memory mode


def test_global_artifact_caches_env_and_reshards_it(monkeypatch, tmp_path):
    built = []

    def from_env(path, knob):
        built.append((path, knob))
        return JsonlArtifact(path)

    slot = GlobalArtifact("demo", "REPRO_TEST_ARTIFACT", ("REPRO_TEST_KNOB",), from_env)
    monkeypatch.delenv("REPRO_TEST_ARTIFACT", raising=False)
    assert slot.configured() is None
    base = str(tmp_path / "d.jsonl")
    monkeypatch.setenv("REPRO_TEST_ARTIFACT", base)
    config = slot.configured()
    assert slot.configured() is config and built == [(base, "")]
    slot.reshard_for_worker(2)
    assert os.environ["REPRO_TEST_ARTIFACT"] == shard_path(base, 2)
    assert slot.configured() is config and len(built) == 1
    with slot.scoped(JsonlArtifact(None)) as installed:
        assert slot.configured() is installed  # installed beats env
    assert slot.configured() is config


def test_parse_knob_names_var_and_value():
    assert parse_knob("REPRO_X", "3", int, lambda v: v > 0, "be positive") == 3
    with pytest.raises(ConfigurationError, match=r"REPRO_X must be positive, got 'x'"):
        parse_knob("REPRO_X", "x", int, lambda v: v > 0, "be positive")
    with pytest.raises(ConfigurationError, match=r"REPRO_X must exceed 0, got '-1'"):
        parse_knob("REPRO_X", "-1", int, lambda v: v > 0, "be positive", "exceed 0")


# ----------------------------------------------------------------------
# The shared reader
# ----------------------------------------------------------------------
def test_jsonl_shards_skips_bookkeeping_and_counts_bad_lines(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"provenance":1}\n'
        '{"a":1}\n'
        "\n"
        '{"attempt":"commit","label":"x"}\n'
        "[1, 2]\n"
        '{"a":1}\n'
        '{"a":2'
    )
    plain = JsonlShards([str(path)])
    assert list(plain) == [("s.jsonl", {"a": 1}), ("s.jsonl", {"a": 1})]
    assert plain.skipped_lines == 2 and plain.duplicates_dropped == 0
    deduped = JsonlShards([str(path)], dedupe=True)
    assert list(deduped) == [("s.jsonl", {"a": 1})]
    assert deduped.duplicates_dropped == 1
