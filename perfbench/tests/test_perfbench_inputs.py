"""The seeded input cache: hits, misses and corrupt entries."""

import json

import inputs


def build_counter(calls):
    def build(tmp):
        calls.append(tmp)
        (tmp / "data.bin").write_bytes(b"x" * 100)
        (tmp / "sub").mkdir()
        (tmp / "sub" / "more.txt").write_text("seeded")
        return {"extra": 1}

    return build


def test_key_depends_on_params_and_seed():
    a = inputs.entry_key("graph", {"n": 10, "seed": 1})
    assert a == inputs.entry_key("graph", {"seed": 1, "n": 10})
    assert a != inputs.entry_key("graph", {"n": 10, "seed": 2})
    assert a != inputs.entry_key("queries", {"n": 10, "seed": 1})


def test_second_call_hits(tmp_path):
    calls = []
    root, meta = inputs.ensure(tmp_path, "k", {"seed": 3}, build_counter(calls))
    again, meta2 = inputs.ensure(tmp_path, "k", {"seed": 3}, build_counter(calls))
    assert len(calls) == 1 and root == again and meta == meta2
    assert meta["extra"] == 1 and set(meta["files"]) == {"data.bin", "sub/more.txt"}


def test_corrupt_entries_are_rebuilt(tmp_path):
    calls = []
    build = build_counter(calls)
    root, _ = inputs.ensure(tmp_path, "k", {"seed": 3}, build)
    (root / "data.bin").write_bytes(b"y" * 100)  # flipped content
    inputs.ensure(tmp_path, "k", {"seed": 3}, build)
    assert len(calls) == 2
    (root / "sub" / "more.txt").unlink()  # missing file
    inputs.ensure(tmp_path, "k", {"seed": 3}, build)
    (root / "meta.json").write_text("{not json")  # unreadable meta
    _, meta = inputs.ensure(tmp_path, "k", {"seed": 3}, build)
    assert len(calls) == 4
    assert (root / "data.bin").read_bytes() == b"x" * 100
    assert json.loads((root / "meta.json").read_text()) == meta


def test_interrupted_build_is_not_an_entry(tmp_path):
    root = tmp_path / inputs.entry_key("k", {"seed": 5})
    tmp = root.with_name(root.name + ".tmp")
    tmp.mkdir()
    (tmp / "data.bin").write_bytes(b"partial")
    calls = []
    got, _ = inputs.ensure(tmp_path, "k", {"seed": 5}, build_counter(calls))
    assert got == root and len(calls) == 1 and not tmp.exists()


def test_prune_drops_least_recently_used(tmp_path, monkeypatch):
    import os

    roots = []
    for seed in range(4):
        root, _ = inputs.ensure(tmp_path, "k", {"seed": seed}, build_counter([]))
        os.utime(root / "meta.json", (seed, seed))
        roots.append(root)
    os.utime(roots[0] / "meta.json", (10, 10))  # used again most recently
    entry = inputs._size(roots[1])
    monkeypatch.setattr(inputs, "MAX_CACHE_BYTES", 3 * entry)
    newest, _ = inputs.ensure(tmp_path, "k", {"seed": 9}, build_counter([]))
    left = {p for p in tmp_path.iterdir()}
    assert newest in left and roots[0] in left
    assert roots[1] not in left and roots[2] not in left
