"""Command-line experiment runner.

Subcommands: ``sample`` (trajectory sweeps over seeds x omegas), ``snr``
(closed-form vs propagated post-step SNR), ``spectrum`` (seed-averaged radial
spectra and band energies with a paired-seed ordering check), and ``preview``
(mask or schedule inspection). Every run writes a ``manifest.json`` listing
the config echo, artifact checksums, versions and timings; identical
(config, seeds) reproduce identical artifact checksums.

Exit codes: 0 success (``--help`` too), 2 config error or an argument list
argparse cannot parse (no output is written), 3 numeric
abort (the manifest then records the aborting cell and step index and lists
every file the run wrote, the aborting cell's own snapshots
included; ``snr`` takes no sampler step, so it
records step 0 and the omega index, and its error names the ladder step),
4 I/O error (an artifact that could not be written leaves a manifest with
status "error" listing every file the run wrote; a manifest that could
not be written leaves the previous one whole; an output directory that
could not be made gets no manifest). Commands never modify their
input files. ``--threads N``/``OMEGANCE_THREADS`` run independent (seed,
omega) cells on the calling thread plus N - 1 helper threads; results do not
depend on the thread count. Every cell runs at every thread count, an
aborting or failing one included, so an aborted or failed manifest does not
depend on ``--threads`` either.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import band_energy, propagate_coefficients_ddim, radial_spectrum
from .config import ConfigError, ExperimentConfig, _output_dir, _seeds, load_config
from .formats import _replacing, format_cell, write_csv, write_pgm, write_snapshot
from .omega import mask_to_grayscale
from .oracles import gaussian_field_2d
from .samplers import NumericAbortError, run_sampler
from .schedules import SignalDivergenceError, modified_snr_ddim

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omegance", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads: bool) -> None:
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seeds", help="comma-separated seed list (overrides the config)")
        if threads:
            p.add_argument(
                "--threads", type=int, help="worker threads (default: OMEGANCE_THREADS or 1)"
            )

    p_sample = sub.add_parser("sample", help="run trajectory sweeps and write snapshots")
    common(p_sample, threads=True)
    p_sample.set_defaults(func=cmd_sample)

    snr_help = (
        "analytic and propagated post-step SNR on every rung of the full ddim ladder, each omega held"
        " constant (sampler.steps and the omega mask and schedule are not read)"
    )
    p_snr = sub.add_parser("snr", help=snr_help, description=snr_help)
    common(p_snr, threads=False)
    p_snr.set_defaults(func=cmd_snr)

    p_spectrum = sub.add_parser("spectrum", help="seed-averaged radial spectra and band energies")
    common(p_spectrum, threads=True)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_preview = sub.add_parser("preview", help="inspect the omega mask or schedule of a config")
    p_preview.add_argument("kind", choices=("mask", "schedule"))
    common(p_preview, threads=False)
    p_preview.set_defaults(func=cmd_preview)
    return parser


def main(argv=None) -> int:
    """Load the config, run a ``cmd_*`` (it lists each file it writes) and write the manifest."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage (code 2) or the help (code 0)
        return exc.code
    command = f"preview-{args.kind}" if args.command == "preview" else args.command
    written: list[str] = []
    try:
        config = _load(args)
        started = time.perf_counter()
        try:
            extra = args.func(args, config, written)
            status, code = "ok", 0
        except NumericAbortError as exc:
            print(f"numeric abort at step {exc.step}: {exc}", file=sys.stderr)
            extra = {"aborted_at_step": exc.step, "error": str(exc), "aborted_cell": exc.cell}
            status, code = "aborted", 3
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            extra = {"error": str(exc)}
            status, code = "error", 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not Path(config.output_dir).is_dir():  # it could not be made, so a manifest has nowhere to go
        return code
    try:
        _write_manifest(Path(config.output_dir), command, config, written, started, status, extra)
    except OSError as exc:
        print(f"io error: manifest not written: {exc}", file=sys.stderr)
        return 4
    return code


# ---------------------------------------------------------------------------
# shared plumbing


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    updates = {}
    if args.out is not None:
        updates["output_dir"] = _output_dir(args.out, "--out")
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --seeds value {args.seeds!r}") from exc
        updates["seeds"] = _seeds(seeds, "--seeds")
    return replace(config, **updates, raw={**config.raw, **updates})  # the manifest echoes the run


def _thread_count(args) -> int:
    value = getattr(args, "threads", None)
    if value is None:
        env = os.environ.get("OMEGANCE_THREADS")
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"bad OMEGANCE_THREADS value {env!r}") from exc
    if value < 1:
        raise ConfigError("thread count must be >= 1")
    return value


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _init_latent(config: ExperimentConfig, seed: int) -> np.ndarray:
    """Initial latent for one seed; stream 0 of the seed's SeedSequence.

    The draw depends on the seed only, so omega sweeps are automatically
    paired. Variance-exploding runs scale the draw to the first sigma level.
    """
    init_stream = np.random.SeedSequence(seed).spawn(2)[0]
    rng = np.random.default_rng(init_stream)
    if config.field is not None:
        z = gaussian_field_2d(config.field, rng)
    else:
        z = rng.standard_normal(config.latent_shape)
    if config.sampler.kind == "euler":
        z = z * float(config.sampler.schedule.sigmas[0])
    return z


class _SeedDraws:
    """Each seed's initial latent, drawn once and shared by that seed's omega cells.

    The first cell of a seed to ask draws it, and the last one to ask drops
    it, so a sweep holds at most one draw per seed in flight. Every seed has
    its own lock: no draw waits on another seed's. The sampler copies its
    initial latent, so the cells never see each other's writes.
    """

    def __init__(self, config: ExperimentConfig):
        self._config = config
        # seed -> [lock, draw or None, omega cells yet to take it]
        self._slots = {seed: [threading.Lock(), None, len(config.omegas)] for seed in config.seeds}

    def take(self, seed: int) -> np.ndarray:
        slot = self._slots[seed]
        with slot[0]:
            z = slot[1]
            if z is None:
                z = slot[1] = _init_latent(self._config, seed)
                z.flags.writeable = False
            slot[2] -= 1
            if slot[2] == 0:
                slot[1] = None
        return z


def _run_cells(config: ExperimentConfig, schedule, threads: int, cell_fn) -> list:
    """Results of ``cell_fn(seed, omega index, draws)`` for every cell, in order.

    ``draws`` is the sweep's ``_SeedDraws``. The calling thread runs cells
    beside ``threads`` - 1 helper threads (no more threads than cells), all
    taking them in cell order from one queue: the caller does not sit idle,
    and malloc keeps one per-thread arena fewer. Every cell runs at every
    thread count, so the files written, and listed, do not depend on it. The
    error raised is that of the lowest failing cell, a numeric abort with
    ``cell`` set to it.

    ``schedule`` is not read, since the config holds it; the parameter stays
    because bench/spans.py wraps this function by its signature.
    """
    cells = [(seed, idx) for seed in config.seeds for idx in range(len(config.omegas))]
    draws = _SeedDraws(config)
    results = [None] * len(cells)
    errors = [None] * len(cells)
    order = iter(range(len(cells)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            seed, idx = cells[i]
            try:
                results[i] = cell_fn(seed, idx, draws)
            except BaseException as exc:
                if isinstance(exc, NumericAbortError):
                    exc.cell = {"seed": seed, "omega_index": idx}
                # every cell is still run and its error kept; an interrupt
                # still stops the thread it reached
                errors[i] = exc
                if not isinstance(exc, Exception):
                    raise

    helpers = [threading.Thread(target=work) for _ in range(min(threads, len(cells)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def _cell_trajectory(config: ExperimentConfig, draws: _SeedDraws, seed: int, idx: int, snapshots, on_snapshot):
    """Trajectory of one (seed, omega index) cell, streaming the given snapshot steps to ``on_snapshot``."""
    sampler = config.sampler
    control = replace(sampler.control, base=config.omegas[idx])
    cell = replace(sampler, control=control, seed=seed, snapshots=snapshots)
    return run_sampler(config.oracle, cell, draws.take(seed), on_snapshot=on_snapshot)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, config: ExperimentConfig, files, started, status, extra) -> None:
    """Write ``manifest.json`` through a temp file, so a failed write leaves the old one whole."""
    manifest = {
        "command": command,
        "status": status,
        "config": config.raw,
        "artifacts": {name: _sha256(out / name) for name in sorted(files)},
        "versions": {
            "omegance": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "timings_s": {"total": time.perf_counter() - started},
    }
    manifest.update(extra)
    with _replacing(out / "manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))


# latent cells converted to Python floats at a time for a csv snapshot
CSV_CHUNK_CELLS = 4096


class _LatentRows:
    """The (flat_index, value) rows of a latent, formed CSV_CHUNK_CELLS cells at a time.

    Sized like the list it stands in for, so the rows can be counted without being formed.
    """

    def __init__(self, values: np.ndarray):
        self._flat = values.reshape(-1)

    def __len__(self) -> int:
        """The row count; write_csv does not read it, but bench/spans.py counts the rows written with it."""
        return self._flat.size

    def __iter__(self):
        for start in range(0, self._flat.size, CSV_CHUNK_CELLS):
            yield from enumerate(self._flat[start : start + CSV_CHUNK_CELLS].tolist(), start)


def _write_latent(out: Path, stem: str, values: np.ndarray, step: int, fmt: str) -> str:
    if fmt == "binary":
        name = f"{stem}.bin"
        write_snapshot(out / name, values, step)
    else:
        name = f"{stem}.csv"
        write_csv(out / name, ["flat_index", "value"], _LatentRows(values))
    return name


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args, config: ExperimentConfig, written: list[str]) -> dict:
    threads = _thread_count(args)
    out = _out_dir(config)

    def run_cell(seed: int, idx: int, draws: _SeedDraws) -> None:
        def write(state) -> None:
            stem = f"seed{seed}_omega{idx}_step{state.step:04d}"
            written.append(_write_latent(out, stem, state.values, state.step, config.snapshot_format))

        final = _cell_trajectory(config, draws, seed, idx, config.sampler.snapshots, on_snapshot=write).final
        written.append(
            _write_latent(out, f"seed{seed}_omega{idx}_final", final.values, final.step, config.snapshot_format)
        )

    _run_cells(config, config.sampler.schedule, threads, run_cell)
    print(f"wrote {len(written)} trajectory files to {out}")
    return {}


# ---------------------------------------------------------------------------
# snr


def cmd_snr(args, config: ExperimentConfig, written: list[str]) -> dict:
    if config.sampler.kind != "ddim":
        raise ConfigError("snr analysis requires a ddim config")
    out = _out_dir(config)
    schedule = config.sampler.schedule

    rows = []
    max_deviation = 0.0
    for idx, omega in enumerate(config.omegas):
        try:
            analytic = modified_snr_ddim(schedule, omega)
            propagated = propagate_coefficients_ddim(schedule, omega)
        except SignalDivergenceError as exc:
            abort = NumericAbortError(0, str(exc))
            abort.cell = {"omega_index": idx}
            raise abort from exc
        deviations = np.abs(analytic - propagated) / analytic
        max_deviation = max(max_deviation, float(deviations.max()))
        for t, a_val, p_val, dev in zip(range(2, schedule.num_steps + 1), analytic, propagated, deviations):
            rows.append([idx, omega, t, a_val, p_val, dev])
    write_csv(
        out / "snr.csv",
        ["omega_index", "omega", "t", "snr_analytic", "snr_propagated", "rel_deviation"],
        rows,
    )
    written.append("snr.csv")
    print(f"max relative deviation between routes: {max_deviation!r}")
    return {"max_relative_deviation": max_deviation}


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args, config: ExperimentConfig, written: list[str]) -> dict:
    if len(config.latent_shape) != 2 or min(config.latent_shape) < 4:
        raise ConfigError("spectrum analysis requires a 2-D latent of at least 4x4")
    threads = _thread_count(args)
    out = _out_dir(config)
    snapshots = config.sampler.snapshots or (config.sampler.steps,)

    def run_cell(seed: int, idx: int, draws: _SeedDraws):
        profiles = {}

        # reduces each snapshot as the sampler hands it over, so a cell holds
        # one snapshot at a time, not its whole trajectory; a finite latent
        # whose power overflows aborts like a non-finite one
        def reduce(state) -> None:
            with np.errstate(over="ignore", invalid="ignore"):
                profile = radial_spectrum(state.values)
                low, high = band_energy(profile, "low"), band_energy(profile, "high")
            _check_power(low, high, state.step)
            profiles[state.step] = (profile.mean_power, low, high)

        _cell_trajectory(config, draws, seed, idx, snapshots, on_snapshot=reduce)
        return idx, profiles

    # (mean_power, low, high) summed over seeds, keyed by (omega index, snapshot
    # step); powers are >= +0.0, so starting from 0.0 changes no bit
    sums: dict[tuple[int, int], tuple] = {}
    cells = _run_cells(config, config.sampler.schedule, threads, run_cell)
    with np.errstate(over="ignore"):  # an overflowing sum aborts below
        for idx, profiles in cells:
            for step, moments in profiles.items():
                total = sums.get((idx, step), (0.0, 0.0, 0.0))
                sums[(idx, step)] = tuple(a + b for a, b in zip(total, moments))

    n_seeds = len(config.seeds)
    # each omega's cell text, formed once rather than once per spectrum row
    omega_cells = [format_cell(omega) for omega in config.omegas]
    spectrum_blocks = [SPECTRUM_HEADER]
    band_rows = []
    for (idx, step), (mean_power, low, high) in sorted(sums.items()):
        _check_power(low, high, step, cell={"omega_index": idx})
        averaged = mean_power / n_seeds
        spectrum_blocks.append(_spectrum_block(idx, omega_cells[idx], step, averaged.tolist()))
        band_rows.append([idx, omega_cells[idx], step, low / n_seeds, high / n_seeds])
    with _replacing(out / "spectrum.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(spectrum_blocks))
    written.append("spectrum.csv")
    write_csv(
        out / "bands.csv",
        ["omega_index", "omega", "step", "low_energy", "high_energy"],
        band_rows,
    )
    written.append("bands.csv")

    if len(config.omegas) < 2:
        return {}
    order = sorted(range(len(config.omegas)), key=lambda i: config.omegas[i])
    ordering_rows = []
    for step in snapshots:
        highs = [sums[(idx, step)][2] for idx in order]
        ok = all(a > b for a, b in zip(highs, highs[1:]))
        ordering_rows.append([step, ok])
    write_csv(
        out / "ordering.csv", ["step", "high_band_strictly_decreasing_in_omega"], ordering_rows
    )
    written.append("ordering.csv")
    verdict = "pass" if ordering_rows[-1][1] else "fail"
    print(f"high-band ordering at final snapshot: {verdict}")
    return {"high_band_ordering_final": verdict}


# spectrum.csv is written as text: every cell is an int, a float's repr or a
# format_cell(omega), none of which csv.writer would quote, so the text is
# the bytes csv.writer writes for the same rows
SPECTRUM_HEADER = "omega_index,omega,step,bin,mean_power\r\n"


def _spectrum_block(idx: int, omega_cell: str, step: int, powers: list[float]) -> str:
    """The spectrum.csv rows of one (omega index, step): ``idx,omega,step,bin,power``, one per bin."""
    prefix = f"{idx},{omega_cell},{step},"
    # join puts the prefix before every row: "" + prefix + row 0 + prefix + row 1 ...
    return prefix.join(["", *(f"{bin_index},{value!r}\r\n" for bin_index, value in enumerate(powers))])


def _check_power(low: float, high: float, step: int, cell=None) -> None:
    """Raise NumericAbortError for ``cell`` unless both band energies are finite.

    Every bin's power, all >= 0, counts toward one band, so an infinite or
    NaN bin, or a sum of bins that overflows, shows in low or high.
    """
    if not (math.isfinite(low) and math.isfinite(high)):
        abort = NumericAbortError(step, f"spectrum power overflows at step {step}")
        abort.cell = cell
        raise abort


# ---------------------------------------------------------------------------
# preview


def cmd_preview(args, config: ExperimentConfig, written: list[str]) -> dict:
    control = config.sampler.control
    if (control.mask if args.kind == "mask" else control.schedule) is None:
        raise ConfigError(f"config has no omega {args.kind} to preview")
    out = _out_dir(config)
    if args.kind == "mask":
        grid = control.mask.grid
        rows = [[i, j, grid[i, j]] for i in range(grid.shape[0]) for j in range(grid.shape[1])]
        write_csv(out / "mask_omega.csv", ["row", "col", "omega"], rows)
        written.append("mask_omega.csv")
        write_pgm(out / "mask_preview.pgm", mask_to_grayscale(control.mask))
        written.append("mask_preview.pgm")
    else:
        values = control.schedule.values
        write_csv(out / "schedule.csv", ["step", "omega"], list(enumerate(values)))
        written.append("schedule.csv")
    print(f"wrote {', '.join(written)} to {out}")
    return {}


if __name__ == "__main__":
    sys.exit(main())
