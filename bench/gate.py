"""Correctness gate applied to every benchmark sweep.

The gate reads the sweep's output directory with its own parsers, never with
the package under test, so a defect in the program cannot hide itself:

- the manifest says ``status: ok`` and lists exactly the files on disk, each
  with its true sha256;
- a sweep's artifacts equal the reference sweep's, byte for byte;
- every row of a spectrum ``ordering.csv`` reads ``true``;
- summaries of the final latents match pinned values (default seed only).
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

PIN_RTOL = 1e-9
# A mean or DC power can sit arbitrarily close to zero, so its tolerance is
# scaled by the latent's magnitude instead of by itself.
PIN_SCALE = {"mean": "rms", "dc": "total"}


class GateError(AssertionError):
    """A sweep's outputs are wrong."""


def check_manifest(out: Path) -> dict[str, str]:
    """Artifact digests of a finished sweep, after checking them against the disk."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("status") != "ok":
        raise GateError(f"manifest status is {manifest.get('status')!r}, not 'ok'")
    listed = manifest["artifacts"]
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    if set(listed) != on_disk:
        raise GateError(
            f"manifest lists {sorted(set(listed) - on_disk)} not on disk and omits {sorted(on_disk - set(listed))}"
        )
    for name, digest in listed.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            raise GateError(f"sha256 of {name} does not match the manifest")
    return listed


def check_same(artifacts: dict[str, str], reference: dict[str, str], what: str) -> None:
    if artifacts != reference:
        differing = sorted(k for k in artifacts.keys() | reference.keys() if artifacts.get(k) != reference.get(k))
        raise GateError(f"artifacts differ from the {what}: {differing[:5]}")


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_ordering(out: Path) -> None:
    rows = _csv_rows(out / "ordering.csv")
    failing = [r["step"] for r in rows if r["high_band_strictly_decreasing_in_omega"] != "true"]
    if not rows or failing:
        raise GateError(f"high-band ordering fails at steps {failing}")


def _read_latent(path: Path, shape: tuple[int, int]) -> np.ndarray:
    if path.suffix == ".bin":
        blob = path.read_bytes()
        magic, rows, cols, _ = struct.unpack_from("<4sIII", blob)
        if magic != b"LSN1" or (rows, cols) != shape or len(blob) != 16 + rows * cols * 8:
            raise GateError(f"{path.name} is not a {shape} snapshot")
        return np.frombuffer(blob, dtype="<f8", offset=16).reshape(shape)
    values = [float(r["value"]) for r in _csv_rows(path)]
    if len(values) != shape[0] * shape[1]:
        raise GateError(f"{path.name} holds {len(values)} values, expected {shape}")
    return np.array(values).reshape(shape)


def high_band_energy(z: np.ndarray) -> float:
    """FFT power (normalised by the cell count) at rounded radius >= min(H, W) / 4."""
    height, width = z.shape
    power = np.abs(np.fft.fft2(z)) ** 2 / z.size
    radii = np.hypot(np.fft.fftfreq(height)[:, None] * height, np.fft.fftfreq(width)[None, :] * width)
    return float(power[np.rint(radii) >= min(height, width) / 4.0].sum())


def summarize(out: Path, command: str, shape: tuple[int, int]) -> dict[str, dict[str, float]]:
    """Per-cell final-latent statistics (sample) or per-omega final band energies (spectrum)."""
    if command == "sample":
        summary = {}
        for path in sorted(out.glob("*_final.*")):
            z = _read_latent(path, shape)
            summary[path.name] = {
                "mean": float(z.mean()),
                "rms": float(np.sqrt(np.mean(z * z))),
                "high": high_band_energy(z),
            }
        return summary
    bands = _csv_rows(out / "bands.csv")
    final = str(max(int(r["step"]) for r in bands))
    dc = {r["omega_index"]: float(r["mean_power"]) for r in _csv_rows(out / "spectrum.csv")
          if r["step"] == final and r["bin"] == "0"}
    return {
        f"omega{r['omega_index']}": {
            "dc": dc[r["omega_index"]],
            "total": float(r["low_energy"]) + float(r["high_energy"]),
            "high": float(r["high_energy"]),
        }
        for r in bands
        if r["step"] == final
    }


def check_pins(summary: dict[str, dict[str, float]], pinned: dict[str, dict[str, float]]) -> None:
    if summary.keys() != pinned.keys():
        raise GateError(f"summarised {sorted(summary)} but pinned {sorted(pinned)}")
    for key, values in pinned.items():
        for quantity, pin in values.items():
            got = summary[key][quantity]
            scale = abs(values[PIN_SCALE.get(quantity, quantity)])
            if not abs(got - pin) <= PIN_RTOL * scale:
                raise GateError(f"{key} {quantity} is {got!r}, pinned {pin!r}")
