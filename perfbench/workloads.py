"""The benchmark's three workloads, their correctness checks and metrics.

Each workload is closed-loop: one caller issues the next call only after the
previous one returned. The program sees only inputs generated from the
workload seed. See README.md in this directory for why each workload exists
and which per-layer metric should move which end-to-end metric.

An untraced run spends ``seconds`` on its own workload (the main phase) and,
because the result line has to carry every end-to-end metric, on probes of
the other two workloads. Main and probe units are interleaved over the whole
run, so that every metric samples the same stretch of machine time; the
result file marks each metric's source as ``main`` or ``probe``. A traced run
alternates untraced and traced chunks of the main phase and reports
per-layer metrics plus the tracing overhead (traced minus untraced
end-to-end numbers).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from lmlp import blocks, checkpoint, complexity, diffusion, optim, train
from lmlp import tensor as T
from lmlp.config import RunConfig
from lmlp.dataset import INTENSITIES, POSITIONS, SHAPES, encode_caption

import tracer as tracing

WORKLOADS = ("train-desk", "sample-guided", "ref-forward")
REF_KINDS = ("F2", "A2", "A3", "TRANSFORMER")
GUIDANCE_OMEGA = 1.0
# Errors lmlp raises for bad numerics, shapes, files or usage; a unit that
# raises one counts as failed. Anything else is a defect and ends the run.
DOMAIN_ERRORS = (ArithmeticError, ValueError, OSError)
MIN_TRAIN_CALLS = 2     # p90 of step times needs >= 100 samples
REF_CHUNK = 4           # grid passes per scheduling slot, about 1 s
LEAD_IN_SHARE = 0.15    # of a run, before the probes start; peak RSS is read at its end
MAIN_SHARE = 0.4        # of the time after the lead-in; the probes share the rest

E2E_UNITS = {
    "setup_s": "s",
    "train_step_ms.p50": "ms",
    "train_step_ms.p90": "ms",
    "train_samples_per_s": "samples/s",
    "train_loss_final": "loss",
    "sample_images_per_s": "images/s",
    **{f"ref_fwd_ms.{kind}.p50": "ms" for kind in REF_KINDS},
    "ref_grid_fwd_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
# failed_op_share is 0 on a healthy run, so it is reported beside the metrics
# (and as attempted/failed on the result line), not as a bounded metric.
OVERHEAD_OF = ("train_step_ms.p50", "train_step_ms.p90", "train_samples_per_s",
               "sample_images_per_s", *(f"ref_fwd_ms.{kind}.p50" for kind in REF_KINDS),
               "ref_grid_fwd_ms.p90")


def _per_layer_units() -> dict[str, str]:
    units = {}
    for op in tracing.REPORTED_OPS:
        units[f"tensor.{op}.calls"] = "count"
        units[f"tensor.{op}.ms"] = "ms"
    units.update({"tensor.recorded_ops": "count", "tensor.backward.ms": "ms",
                  "tensor.permute.bytes": "B", "tensor.out_bytes": "B"})
    for part in tracing.BLOCK_PARTS:
        units[f"blocks.{part}.fwd_ms"] = "ms"
    units["blocks.self_ms"] = "ms"
    for part in tracing.BLOCK_MAC_PARTS:
        units[f"blocks.{part}.macs"] = "MAC"
    units.update({"backbone.forward.ms": "ms", "backbone.forward.calls": "count",
                  "backbone.forward.rows": "count"})
    for part in tracing.BACKBONE_PARTS:
        units[f"backbone.{part}.fwd_ms"] = "ms"
    units["backbone.self_ms"] = "ms"
    for part in tracing.BACKBONE_MAC_PARTS:
        units[f"backbone.{part}.macs"] = "MAC"
    units.update({"diffusion.training_loss.self_ms": "ms", "diffusion.sample.self_ms": "ms",
                  "optim.step.ms": "ms", "checkpoint.save.ms": "ms",
                  "checkpoint.save.bytes": "B", "checkpoint.load.ms": "ms",
                  "dataset.generate_arrays.ms": "ms"})
    for name in OVERHEAD_OF:
        units[f"trace_overhead.{name}"] = E2E_UNITS[name]
    return units


PER_LAYER_UNITS = _per_layer_units()


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, tests shrink them."""

    warmup_steps: int = 5          # untimed optimizer steps per training run
    timed_steps: int = 50          # timed optimizer steps per training run
    loss_window: int = 25
    batch_size: int = 32
    num_samples: int = 2048
    embed_dim: int = 64
    depth: int = 4
    learning_rate: float = 2e-4
    lr_warmup: int = 50
    sample_steps: int = 50
    ref_seq_len: int = complexity.REFERENCE_SEQ_LEN
    ref_embed: int = complexity.REFERENCE_EMBED
    ref_scale: float = 4.0
    setup_repeats: int = 5
    min_ref_passes: int = 100       # p90 of grid passes needs >= 10 beyond
    probe_ref_passes: int = 10


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def run_config(seed: int, sizes: Sizes, out_dir: Path, steps: int) -> RunConfig:
    """Desk defaults (F2, L=21, float32) with the workload seed for model and data."""
    return RunConfig(seed=seed, data_seed=seed, train_steps=steps,
                     batch_size=sizes.batch_size, num_samples=sizes.num_samples,
                     embed_dim=sizes.embed_dim, depth=sizes.depth,
                     learning_rate=sizes.learning_rate, warmup_steps=sizes.lr_warmup,
                     sample_steps=sizes.sample_steps,
                     checkpoint_every=max(steps, 1), out_dir=str(out_dir))


def all_captions(text_tokens: int) -> np.ndarray:
    """Every shape x position x intensity caption, in vocabulary order."""
    return np.stack([encode_caption([shape, position, intensity], text_tokens)
                     for shape in SHAPES for position in POSITIONS
                     for intensity in INTENSITIES])


def setup_train(seed, sizes, work):
    """Model build, dataset generation and a step-0 checkpoint, via run_training."""
    shutil.rmtree(work / "setup", ignore_errors=True)
    train.run_training(run_config(seed, sizes, work / "setup", 0))
    return None


def setup_sample(seed, sizes, work):
    """Write an untrained checkpoint and read it back as ``lmlp sample`` does."""
    shutil.rmtree(work / "setup", ignore_errors=True)
    result = train.run_training(run_config(seed, sizes, work / "setup", 0))
    snapshot = checkpoint.load_checkpoint(result.final_checkpoint)
    return checkpoint.restore_model(snapshot), snapshot.config


def setup_ref(seed, sizes, work):
    built = {kind: blocks.build_block(kind, seed, seq_len=sizes.ref_seq_len,
                                      embed_dim=sizes.ref_embed, mlp_scale=sizes.ref_scale,
                                      dtype=np.float32)
             for kind in REF_KINDS}
    x = np.random.default_rng(seed).standard_normal((1, sizes.ref_seq_len, sizes.ref_embed))
    return built, T.Tensor(x.astype(np.float32))


SETUP = {"train-desk": setup_train, "sample-guided": setup_sample, "ref-forward": setup_ref}


# ---------------------------------------------------------------------------
# measurement loops
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """Raw timings of one workload's measurement units, accumulated over a run."""

    units: int = 0                         # optimizer steps, denoising steps or grid passes
    calls: int = 0                         # training or sample calls made
    step_s: list[float] = field(default_factory=list)
    timed_samples: int = 0
    timed_wall_s: float = 0.0
    final_losses: list[float] = field(default_factory=list)
    images_per_s: list[float] = field(default_factory=list)
    first_sample: np.ndarray | None = None  # every later sample call must equal it bitwise
    kind_s: dict[str, list[float]] = field(default_factory=dict)
    grid_s: list[float] = field(default_factory=list)


def _check_training(result, steps: int, sizes: Sizes, tally: Tally, label: str) -> None:
    losses = result.losses
    if len(losses) != steps or not all(math.isfinite(v) for v in losses):
        tally.fail(f"{label}: expected {steps} finite losses")
        return
    window = sizes.loss_window
    first = statistics.fmean(losses[sizes.warmup_steps:sizes.warmup_steps + window])
    last = statistics.fmean(losses[-window:])
    if not last < first:
        tally.fail(f"{label}: last-window loss {last} is not below first-window {first}")
    lines = Path(result.log_path).read_text().splitlines()
    if lines != [train.LOG_HEADER] + [f"{i},{v!r}" for i, v in enumerate(losses)]:
        tally.fail(f"{label}: loss log does not match the returned losses")
    try:
        snapshot = checkpoint.load_checkpoint(result.final_checkpoint)
        checkpoint.restore_model(snapshot)
    except DOMAIN_ERRORS as exc:
        tally.fail(f"{label}: final checkpoint does not restore: {exc!r}")
        return
    if snapshot.step != steps:
        tally.fail(f"{label}: final checkpoint is at step {snapshot.step}, not {steps}")


def measure_train(state, seed, sizes, work, phase, calls, tally) -> None:
    """``calls`` repeated ``run_training`` calls; one timestamp per optimizer step."""
    steps = sizes.warmup_steps + sizes.timed_steps
    for _ in range(calls):
        label = f"training run {phase.calls}"
        run_dir = work / f"train{phase.calls}"
        phase.calls += 1
        shutil.rmtree(run_dir, ignore_errors=True)
        stamps: list[float] = []
        step = optim.AdamW.step

        def stamped(self, *args, **kwargs):
            step(self, *args, **kwargs)
            stamps.append(time.perf_counter())

        optim.AdamW.step = stamped
        try:
            result = train.run_training(run_config(seed, sizes, run_dir, steps))
        except DOMAIN_ERRORS as exc:
            tally.attempted += len(stamps) + 1
            tally.fail(f"{label} raised {exc!r}")
            return
        finally:
            optim.AdamW.step = step
        end = time.perf_counter()
        tally.attempted += steps
        phase.units += steps
        timed = stamps[sizes.warmup_steps - 1:]
        phase.step_s.extend(b - a for a, b in zip(timed, timed[1:]))
        phase.timed_samples += (len(timed) - 1) * sizes.batch_size
        phase.timed_wall_s += end - timed[0]
        _check_training(result, steps, sizes, tally, label)
        if not phase.final_losses:
            phase.final_losses = result.losses[-sizes.loss_window:]
        shutil.rmtree(run_dir, ignore_errors=True)


def measure_sample(state, seed, sizes, work, phase, calls, tally) -> None:
    """Guided sampling of all 30 captions; every call must repeat the first bitwise."""
    model, config = state
    ids = all_captions(config.text_tokens)
    sched, sampler = config.noise_schedule(), config.sampler_config()
    shape = (len(ids), config.in_channels, config.image_side, config.image_side)
    for _ in range(calls):
        label = f"sample call {phase.calls}"
        phase.calls += 1
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = diffusion.sample(model, ids, sched, sampler, GUIDANCE_OMEGA, seed)
        except DOMAIN_ERRORS as exc:
            tally.fail(f"{label} raised {exc!r}")
            return
        elapsed = time.perf_counter() - t0
        phase.units += len(sampler.timesteps(sched.num_steps))
        phase.images_per_s.append(len(ids) / elapsed)
        data = out.data
        if data.shape != shape or not np.isfinite(data).all():
            tally.fail(f"{label}: output is not finite with shape {shape}")
        elif phase.first_sample is None:
            phase.first_sample = data.copy()
        elif not np.array_equal(data, phase.first_sample):
            tally.fail(f"{label} differs from the first call")


def measure_ref(state, seed, sizes, work, phase, passes, tally) -> None:
    """``passes`` grid passes, each one no-grad forward of every block kind."""
    built, x = state
    for kind in built:
        phase.kind_s.setdefault(kind, [])
    with T.no_grad():
        for _ in range(passes):
            total = 0.0
            for kind, block in built.items():
                tally.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = block.forward(x)
                except DOMAIN_ERRORS as exc:
                    tally.fail(f"{kind} forward raised {exc!r}")
                    return
                elapsed = time.perf_counter() - t0
                total += elapsed
                phase.kind_s[kind].append(elapsed)
                if out.shape != x.shape or not np.isfinite(out.data).all():
                    tally.fail(f"{kind} forward output is not finite with shape {x.shape}")
            phase.units += 1
            phase.grid_s.append(total)


MEASURE = {"train-desk": measure_train, "sample-guided": measure_sample,
           "ref-forward": measure_ref}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _timing(values_s: list[float], q: int) -> dict:
    """Percentile q of durations in ms, with the sample count and how many lie beyond."""
    ms = np.asarray(values_s) * 1e3
    value = float(np.percentile(ms, q))
    entry = {"value": value, "samples": int(ms.size)}
    if q != 50:
        entry["beyond"] = int((ms > value).sum())
    return entry


def phase_metrics(workload: str, phase: Phase) -> dict[str, dict]:
    """End-to-end metrics of one workload's phase; empty if it measured nothing."""
    out: dict[str, dict] = {}
    if workload == "train-desk" and phase.step_s:
        out["train_step_ms.p50"] = _timing(phase.step_s, 50)
        out["train_step_ms.p90"] = _timing(phase.step_s, 90)
        out["train_samples_per_s"] = {"value": phase.timed_samples / phase.timed_wall_s,
                                      "samples": len(phase.step_s)}
        out["train_loss_final"] = {"value": statistics.fmean(phase.final_losses),
                                   "samples": len(phase.final_losses)}
    elif workload == "sample-guided" and phase.images_per_s:
        out["sample_images_per_s"] = {"value": statistics.median(phase.images_per_s),
                                      "samples": len(phase.images_per_s)}
    elif workload == "ref-forward" and phase.grid_s:
        for kind, values in phase.kind_s.items():
            out[f"ref_fwd_ms.{kind}.p50"] = _timing(values, 50)
        out["ref_grid_fwd_ms.p90"] = _timing(phase.grid_s, 90)
    for entry in out.values():
        entry["source"] = "main"
    return out


def import_seconds(src: Path, repeats: int) -> list[float]:
    """Import time of the driven lmlp modules, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            "import lmlp.train, lmlp.diffusion, lmlp.checkpoint, lmlp.blocks, "
            "lmlp.complexity; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(repeats)]


def timed_setup(workload, seed, sizes, work, repeats):
    """Run the workload's set-up ``repeats`` times; return the last state and the times."""
    times, state = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = SETUP[workload](seed, sizes, work)
        times.append(time.perf_counter() - t0)
    return state, times


def provenance(root: Path, seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == root.resolve():
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "lmlp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def _interleave(workload, state, seed, sizes, work, seconds, tally) -> tuple[dict, float]:
    """Measure the main workload and its probes over ``seconds``, interleaved.

    The main workload runs alone for the lead-in; peak RSS is read then,
    before the probes are set up. Throughout, the scheduler runs one slot (a
    training call, a sample call or ``REF_CHUNK`` grid passes) of whichever
    workload is furthest behind its share of time, so each metric's samples
    are spread over the whole run rather than taken in one stretch of a
    shared machine's varying speed. After ``seconds`` every workload runs on
    until it has its minimum count; one that stops making progress (its unit
    raised) is dropped. Returns the phases and the peak RSS in MB.
    """
    chunk = {"train-desk": 1, "sample-guided": 1, "ref-forward": REF_CHUNK}
    minimum = {"train-desk": MIN_TRAIN_CALLS,
               "sample-guided": 2,   # two calls for the bitwise check
               "ref-forward": sizes.min_ref_passes}
    probe_minimum = {"train-desk": MIN_TRAIN_CALLS, "sample-guided": 1,
                     "ref-forward": sizes.probe_ref_passes}
    probes = [other for other in WORKLOADS if other != workload]
    share = {workload: MAIN_SHARE, **{other: (1.0 - MAIN_SHARE) / len(probes) for other in probes}}
    states = {workload: state}
    phases = {workload: Phase()}
    spent, done, live = {workload: 0.0}, {workload: 0}, {workload}
    peak_rss_mb = None
    start = time.perf_counter()
    while live:
        elapsed = time.perf_counter() - start
        if peak_rss_mb is None and elapsed >= LEAD_IN_SHARE * seconds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for other in probes:
                states[other] = SETUP[other](seed, sizes, work)
                phases[other], done[other] = Phase(), 0
                spent[other] = spent[workload] / share[workload] * share[other]
                minimum[other] = probe_minimum[other]
                live.add(other)
            continue
        pool = live if elapsed < seconds else {n for n in live if done[n] < minimum[n]}
        if not pool:
            break
        name = min(sorted(pool), key=lambda n: spent[n] / share[n])
        before = phases[name].units
        t0 = time.perf_counter()
        MEASURE[name](states[name], seed, sizes, work, phases[name], chunk[name], tally)
        spent[name] += time.perf_counter() - t0
        if phases[name].units == before:
            live.discard(name)
        else:
            done[name] += chunk[name]
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return phases, peak_rss_mb


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path,
        sizes: Sizes = Sizes()) -> dict:
    """One benchmark run; returns the result record, also written to ``out_dir``.

    ``root`` is the checkout holding ``src/lmlp``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "sizes": asdict(sizes)}
    try:
        if trace:
            state, _ = timed_setup(workload, seed, sizes, work, 1)
            record["metrics"] = _traced(workload, state, seed, sizes, work, seconds,
                                        tally, record, out_dir)
        else:
            imports = import_seconds(root / "src", sizes.setup_repeats)
            state, setups = timed_setup(workload, seed, sizes, work, sizes.setup_repeats)
            metrics = {"setup_s": {
                "value": statistics.median(imports) + statistics.median(setups),
                "samples": len(setups), "import_s": imports, "inputs_s": setups,
                "source": "main"}}
            phases, peak_rss_mb = _interleave(workload, state, seed, sizes, work, seconds, tally)
            for name, phase in phases.items():
                measured = phase_metrics(name, phase)
                for entry in measured.values():
                    entry["source"] = "main" if name == workload else "probe"
                metrics.update(measured)
            metrics["peak_rss_mb"] = {"value": peak_rss_mb, "samples": 1, "source": "main"}
            record["calls"] = {name: phase.calls for name, phase in phases.items()}
            record["units"] = {name: phase.units for name, phase in phases.items()}
            record["metrics"] = metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    missing = [name for name in units if name not in record["metrics"]]
    for name in missing:
        tally.fail(f"metric {name} was not measured")
    for name, entry in record["metrics"].items():
        entry["unit"] = units[name]
    record.update(attempted=max(tally.attempted, 1), failed=tally.failed,
                  failures=tally.messages, provenance=provenance(root, seed))
    record["failed"] = min(record["failed"], record["attempted"])
    record["failed_op_share"] = record["failed"] / record["attempted"]
    record["correct"] = not tally.messages
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def _ref_path(kind: str) -> str:
    """Span path of a ref-forward block: ``blocks.*`` metrics cover the F2 block only."""
    return f"blocks.{kind}" if kind == "F2" else f"baselines.{kind}"


def _traced(workload, state, seed, sizes, work, seconds, tally, record, out_dir) -> dict:
    """Per-layer metrics and tracing overhead.

    Untraced and traced chunks of the main phase alternate for ``seconds``.
    Step time depends on the process's history (numpy temporaries page-fault
    less once the allocator has grown), so running the two one after the
    other would fold that drift into the overhead.
    """
    chunk = {"train-desk": 1, "sample-guided": 2, "ref-forward": sizes.probe_ref_passes}
    measure = MEASURE[workload]
    tracer = tracing.Tracer()
    with tracer:
        traced_state = SETUP[workload](seed, sizes, work)
    expected = {}
    if workload == "ref-forward":
        built, _ = traced_state
        for kind, block in built.items():
            tracer.register(block, block.named_parameters(_ref_path(kind) + "."),
                            _ref_path(kind))
        expected = {_ref_path(kind): int(complexity.analytic_cost(
                        formula, sizes.ref_seq_len, sizes.ref_embed, sizes.ref_scale).macs)
                    for kind, formula in (("F2", "lmlp"), ("TRANSFORMER", "transformer"))}
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    while not traced.units or time.perf_counter() - start < seconds:
        measure(state, seed, sizes, work, plain, chunk[workload], tally)
        with tracer:
            measure(traced_state, seed, sizes, work, traced, chunk[workload], tally)
        if tally.failed:
            break
    plain_metrics, traced_metrics = phase_metrics(workload, plain), phase_metrics(workload, traced)
    metrics = {name: {"value": value, "samples": traced.units}
               for name, value in tracing.layer_metrics(tracer.spans, traced.units).items()
               if name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, {"value": 0.0, "samples": 0})
    for name in OVERHEAD_OF:
        if name in traced_metrics and name in plain_metrics:
            metrics[f"trace_overhead.{name}"] = {
                "value": traced_metrics[name]["value"] - plain_metrics[name]["value"],
                "samples": traced_metrics[name]["samples"]}
    made, failures = tracing.mac_checks(tracer.spans, expected)
    if made == 0:
        failures.append("no MAC attribution check could be made")
    for message in failures:
        tally.fail(f"MAC attribution: {message}")
    record["mac_checks"] = {"made": made, "failed": len(failures)}
    record["traced_units"] = traced.units
    record["plain"], record["traced"] = plain_metrics, traced_metrics
    tracer.write(out_dir / f"{workload}-seed{seed}.spans.jsonl")
    return metrics
