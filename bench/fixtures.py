"""Seeded LGAE input files for the workloads.

Run as a script, it generates one fixture with lganet's own
``synth_dataset`` + ``write_dataset`` and prints a JSON line with the
file's SHA-256, the write time and the SHA-256 of the kind's canary. The
benchmark runs it in a child process so that generating the data never
counts toward the measured process's peak RSS.

The fixture of a seed has no digest to compare with, so each kind also
writes a canary: the first ``CANARY_RECORDS`` records at ``REFERENCE_SEED``
with the fixture's shape. Its digest must equal the one committed in
``REFERENCE_SHA256``; otherwise ``synth_dataset`` or ``write_dataset`` now
write other bytes, two commits would be measured on different inputs, and
the run counts a failed operation.

    python3 bench/fixtures.py --kind desk --seed 1 --out /tmp/desk.lgae
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# kind -> (records, leads, length); classes are always 6
KINDS = {
    "desk": (512, 12, 1024),     # criterion 08 desk-scale training set
    "paper": (32, 12, 4096),     # one B=32 batch at the paper's input length
    "ingest": (8192, 12, 1024),  # ~403 MB, the data path at scale
}
CLASSES = 6
HEADER_BYTES = 28
GENERATE_TIMEOUT_S = 170.0

REFERENCE_SEED = 0
CANARY_RECORDS = 4
# SHA-256 of each kind's canary file, as written when the benchmark was defined
REFERENCE_SHA256 = {
    "desk": "0dcefec58e54248d104f232d633c3331d0a46f3d00b946cf62ffdef297afc4cc",
    "paper": "a972428495482f1000e209db5e3410240fde95a77a8f74c975b7c981711fa785",
    "ingest": "0dcefec58e54248d104f232d633c3331d0a46f3d00b946cf62ffdef297afc4cc",
}


def record_bytes(leads: int, length: int, classes: int = CLASSES) -> int:
    """Size of one LGAE record: u64 patient id, one byte per label, f32 samples."""
    return 8 + classes + 4 * leads * length


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def canary_sha256(kind: str, out: str) -> str:
    """Digest of the kind's canary, written next to ``out`` and removed again."""
    import lganet

    _, leads, length = KINDS[kind]
    records = lganet.synth_dataset(CANARY_RECORDS, CLASSES, seed=REFERENCE_SEED,
                                   leads=leads, length=length)
    path = f"{out}.canary"
    try:
        lganet.write_dataset(records, path)
        return sha256_of(path)
    finally:
        os.remove(path)


def make(kind: str, seed: int, out: str) -> dict:
    import lganet

    n, leads, length = KINDS[kind]
    records = lganet.synth_dataset(n, CLASSES, seed=seed, leads=leads, length=length)
    start = time.perf_counter()
    lganet.write_dataset(records, out)
    write_s = time.perf_counter() - start
    return {"kind": kind, "seed": seed, "records": n, "leads": leads, "length": length,
            "classes": CLASSES,
            "bytes": os.path.getsize(out), "write_s": write_s, "sha256": sha256_of(out),
            "canary_sha256": canary_sha256(kind, out)}


def generate(kind: str, seed: int, out: Path) -> dict:
    """Generate a fixture in a child process; returns what the child reported."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--kind", kind,
         "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, timeout=GENERATE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"fixture generation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=sorted(KINDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(make(args.kind, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
