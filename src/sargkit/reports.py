"""Run manifests and machine-readable report serialization.

Every report embeds a RunManifest describing how it was produced.  CSV
reports carry the manifest as a single leading comment line
(``# manifest: {...}``) followed by an RFC-4180-style table; JSON reports
are a single object ``{"manifest": ..., "results": ...}``.  Numeric cells
are written in full double precision (shortest round-trip form); commands
add explicitly rounded display columns where a table is meant for reading.

The numeric payload (everything outside the manifest) is byte-stable across
reruns with identical parameters; only the manifest timestamps vary.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone


@dataclass(frozen=True)
class RunManifest:
    """Provenance record embedded in every report."""

    command: str
    parameters: dict
    version: str
    seed: int | None
    started: str
    finished: str | None = None
    status: str | None = None


def start_manifest(command: str, parameters: dict, version: str,
                   seed: int | None = None) -> RunManifest:
    return RunManifest(
        command=command,
        parameters=parameters,
        version=version,
        seed=seed,
        started=datetime.now(timezone.utc).isoformat(),
    )


def finish_manifest(manifest: RunManifest, status: str) -> RunManifest:
    return replace(
        manifest,
        finished=datetime.now(timezone.utc).isoformat(),
        status=status,
    )


def render_csv(fieldnames: list[str], rows: list[dict],
               manifest: RunManifest) -> str:
    """Serialize rows as a CSV table with a leading manifest comment line.

    Cells follow ``fieldnames``; None is an empty cell, and a row that lacks
    a column raises KeyError.
    """
    buf = io.StringIO()
    buf.write("# manifest: %s\r\n" % json.dumps(asdict(manifest), sort_keys=True))
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([row[k] for k in fieldnames])
    return buf.getvalue()


def render_json(results, manifest: RunManifest) -> str:
    """Serialize results with the manifest as a canonical JSON document."""
    doc = {"manifest": asdict(manifest), "results": results}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"

