"""Seeded input cache: one directory per (generator parameters, seed).

An entry is complete when its ``meta.json`` exists; that file is
written last and lists the SHA-256 of every other file in the entry.
An entry whose meta is missing or unreadable, or whose files do not
match their digests, is deleted and treated as a miss.  Every hit or
build touches the entry's meta; once the cache outgrows
:data:`MAX_CACHE_BYTES`, the least recently used entries are deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Callable, Dict, Optional

#: Bump to invalidate every cached entry after a format change.
SCHEMA = 3

#: Size the cache is pruned back to (a 1e6-page graph entry is ~85 MB).
MAX_CACHE_BYTES = 1 << 30


def entry_key(kind: str, params: dict) -> str:
    blob = json.dumps(
        {"schema": SCHEMA, "kind": kind, "params": params}, sort_keys=True
    )
    return f"{kind}-{hashlib.sha256(blob.encode()).hexdigest()[:20]}"


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def _files(root: Path):
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = Path(dirpath) / name
            rel = path.relative_to(root).as_posix()
            if rel != "meta.json":
                yield rel, path


def load_entry(root: Path) -> Optional[dict]:
    """The entry's meta if it is complete and intact, else None."""
    try:
        meta = json.loads((root / "meta.json").read_text())
        expected: Dict[str, str] = meta["files"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    found = dict(_files(root))
    if set(found) != set(expected):
        return None
    for rel, digest in expected.items():
        if file_digest(found[rel]) != digest:
            return None
    return meta


def ensure(
    cache_dir: Path,
    kind: str,
    params: dict,
    build: Callable[[Path], dict],
) -> tuple:
    """Return ``(entry dir, meta)``, building the entry on a miss.

    ``build(tmp_dir)`` writes the entry's files into ``tmp_dir`` and
    returns extra meta fields; the directory is renamed into place only
    after ``meta.json`` is written, so an interrupted build never looks
    complete.
    """
    root = cache_dir / entry_key(kind, params)
    meta = load_entry(root)
    if meta is not None:
        os.utime(root / "meta.json")
        return root, meta
    if root.exists():
        shutil.rmtree(root)
    tmp = root.with_name(root.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    extra = build(tmp)
    meta = {
        "kind": kind,
        "params": params,
        **extra,
        "files": {rel: file_digest(path) for rel, path in _files(tmp)},
    }
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    os.replace(tmp, root)
    prune(cache_dir, MAX_CACHE_BYTES, keep=root)
    return root, meta


def _size(root: Path) -> int:
    return sum(path.stat().st_size for _rel, path in _files(root))


def prune(cache_dir: Path, max_bytes: int, keep: Path) -> None:
    """Delete least recently used entries until the cache fits
    ``max_bytes``; ``keep`` (the entry just built) always stays."""
    entries = []
    for root in cache_dir.iterdir():
        try:
            entries.append((os.stat(root / "meta.json").st_mtime, root))
        except OSError:
            continue
    entries.sort()
    total = sum(_size(root) for _t, root in entries)
    for _t, root in entries:
        if total <= max_bytes:
            break
        if root == keep:
            continue
        total -= _size(root)
        shutil.rmtree(root)
