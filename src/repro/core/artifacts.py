"""Content-addressed artifact store (the v5 run cache layout).

Generalises the flat one-file-per-fingerprint run cache of PRs 1-4
into the one durable layer of a campaign, shared by inline and pool
runs alike:

* **Content addressing** -- the key *is* the SHA-256 scenario
  fingerprint (:func:`repro.core.campaign.scenario_fingerprint`), so
  an inline run, a pool worker and a cache-warm replay all land on
  the same entry and a recompute after a crash overwrites it with
  byte-identical content.
* **Sharded layout** -- entries live under
  ``<root>/objects/<key[:2]>/<key>.json`` so a campaign of thousands
  of points never piles every file into one directory.
* **Atomic writes** -- temp file + ``os.replace``, same guarantee as
  the old cache: a SIGKILLed worker can never leave a truncated
  entry that poisons the next reader.
* **Integrity verification on read** -- every entry embeds the
  SHA-256 of its canonical body; :meth:`ArtifactStore.get` recomputes
  and compares it, so silent corruption (partial disk writes, manual
  edits) degrades to a cache miss instead of a wrong result.

Entries written under an older :data:`CACHE_FORMAT` -- including the
flat v4 files, which the sharded layout never even looks at -- are
treated as misses and recomputed; the old files are left untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.core.fingerprint import canonical_json

#: Bump whenever the cache serialisation or run semantics change:
#: entries written under another version are treated as misses.
#: v2: fault plans fold into the fingerprint; the package version is
#: part of the payload.
#: v3: the kernel tie-break policy (``scenario.tie_break``) is a
#: scenario field and therefore part of the fingerprint.
#: v4: fingerprints go through the shared
#: :func:`~repro.core.fingerprint.spec_fingerprint` helper and carry
#: an optional *salt* (variation campaigns).
#: v5: entries move into the content-addressed
#: :class:`ArtifactStore` -- same content key, sharded
#: ``objects/<key[:2]>/`` layout, embedded SHA-256 body digest
#: verified on every read.  v4 flat entries are simply ignored
#: (recomputed, never rewritten or deleted).
CACHE_FORMAT = 5


def body_digest(body: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of an artifact body."""
    return hashlib.sha256(
        canonical_json(body).encode("utf-8")).hexdigest()


class ArtifactStore:
    """A directory of content-addressed, integrity-checked artifacts.

    Bodies are plain JSON-serialisable dicts; the store wraps them in
    an envelope carrying :data:`CACHE_FORMAT` and the body's SHA-256
    and refuses to return anything whose envelope does not verify.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(os.path.join(root, "objects"), exist_ok=True)

    def path(self, key: str) -> str:
        """Where the entry for *key* lives (``objects/<k[:2]>/<k>.json``)."""
        shard = key[:2] if len(key) >= 2 else "_"
        return os.path.join(self.root, "objects", shard, f"{key}.json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The verified body stored under *key*, or None on any problem.

        Unreadable, unparsable, wrong-version or corrupt entries (the
        embedded digest no longer matches the body) are all misses.
        """
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
            if envelope.get("format") != CACHE_FORMAT:
                return None
            body = envelope["body"]
            if not isinstance(body, dict):
                return None
            if envelope.get("sha256") != body_digest(body):
                return None
            return body
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, body: Dict[str, Any]) -> str:
        """Store *body* under *key* atomically; returns the entry path."""
        target = self.path(key)
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        envelope = {"format": CACHE_FORMAT,
                    "sha256": body_digest(body),
                    "body": body}
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, target)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return target

    def has(self, key: str) -> bool:
        """Whether a *verified* entry exists for *key*."""
        return self.get(key) is not None

    def keys(self) -> List[str]:
        """All stored keys, sorted (verified or not)."""
        objects = os.path.join(self.root, "objects")
        found = []
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    found.append(name[:-len(".json")])
        return found


__all__ = ["ArtifactStore", "CACHE_FORMAT", "body_digest"]
