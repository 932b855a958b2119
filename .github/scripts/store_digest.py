"""Check that two result stores hold byte-identical namespaces.

Usage: python .github/scripts/store_digest.py STORE_A STORE_B

Each store root must hold exactly one namespace directory (besides
``quarantine/``) with at least one entry.  The digest covers every
entry's relative path and bytes.  Exits 0 when the two digests are
equal, 1 otherwise.
"""

import hashlib
import pathlib
import sys


def digest(root):
    namespaces = [d for d in pathlib.Path(root).iterdir()
                  if d.is_dir() and d.name != "quarantine"]
    if len(namespaces) != 1:
        sys.exit(f"{root}: expected one namespace, found {namespaces}")
    ns = namespaces[0]
    rels = sorted(p.relative_to(ns).as_posix() for p in ns.rglob("*.json"))
    if not rels:
        sys.exit(f"{root}: the namespace {ns.name} is empty")
    h = hashlib.sha256()
    for rel in rels:
        h.update(rel.encode())
        h.update((ns / rel).read_bytes())
    return len(rels), h.hexdigest()


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    digests = [digest(root) for root in argv]
    for root, (count, hexdigest) in zip(argv, digests):
        print(f"{root}: {count} entries, sha256 {hexdigest}")
    return 0 if digests[0] == digests[1] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
