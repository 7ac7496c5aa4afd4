"""The three workloads of the radius loop: ``explore``, ``decide`` and ``train``.

Each workload has a set-up (timed as ``setup_s``), an operation that the
benchmark repeats until its time is up, and output checks on every
operation.  Inputs come only from the workload seed.  ``explore`` and the
window logs of ``decide`` and ``train`` share one service area: a 10 x 10
grid over lon -74.02..-73.93 and lat 40.70..40.80.
"""
from __future__ import annotations

import copy
import hashlib
import time
from collections import Counter
from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from ridecast.demand import apply_norm, default_profile, fit_norm_stats, synth_demand
from ridecast.market import DriverStatus, GridSpec, MarketWindow, time_of_day
from ridecast.nn import ModelConfig, TransformerRegressor
from ridecast.optimizer import (
    CandidateSet,
    FeatureLayout,
    ModelPredictor,
    PredictorRadiusSource,
    TrainingData,
    dataset_from_windows,
)
from ridecast.sim import EpisodeResult, RandomRadius, SimConfig, Simulation, WindowSnapshot
from ridecast.training import StrategyConfig, TrainConfig, train

from tracing import TimedPredictor, TimedRadiusSource, TracedModel, Tracer

CANDIDATES = (0.5, 1.0, 1.5, 2.0, 3.0)
SEQ_LEN = 6
WINDOW_S = 300.0
MORNING_S = 8 * 3600.0
SPEED_KMH = 25.0


@dataclass(frozen=True)
class Size:
    side: int             # grid cells per side
    drivers: int          # explore fleet, and the driver count the window logs imitate
    daily_orders: float
    horizon_s: float      # explore episode length
    day_windows: int      # decide: radii calls per deployment day
    stats_windows: int    # decide: windows in the log its NormStats are fitted on
    episodes: int         # train: logged episodes
    episode_windows: int  # train: windows per logged episode
    epochs: int           # train: epochs per training run

    @property
    def grid(self) -> GridSpec:
        return GridSpec(lon_min=-74.02, lat_min=40.70, lon_max=-73.93, lat_max=40.80, side_count=self.side)


FULL = Size(side=10, drivers=1000, daily_orders=200_000, horizon_s=3600.0, day_windows=288,
            stats_windows=12, episodes=10, episode_windows=12, epochs=4)
# Runs in seconds; the self-check uses it.
TINY = Size(side=3, drivers=30, daily_orders=20_000, horizon_s=600.0, day_windows=6,
            stats_windows=4, episodes=5, episode_windows=4, epochs=10)


@dataclass
class Outcome:
    """One operation: an episode, a deployment day or a training run."""

    measured_s: float = 0.0   # wall seconds of the timed part
    items: int = 0            # orders created, grid decisions, or examples x epochs
    call_ms: list[float] = field(default_factory=list)  # decide: wall ms per radii call
    digest: str = ""
    problems: list[str] = field(default_factory=list)   # failed output checks
    error: Optional[str] = None                         # exception raised by the program
    counts: dict = field(default_factory=dict)           # explore: created, matched, expired


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


def market_log(rng: np.random.Generator, size: Size, n_windows: int, day_start_s: float):
    """Seeded per-grid window rows shaped like a simulator's window log.

    Counts follow the synthetic demand profile's spatial and hourly shape;
    the realized metrics depend on the counts and the radius plus noise, so a
    forecaster has something to learn.  Returns, per window, the snapshot
    taken at its start and its ``MarketWindow`` rows.
    """
    grid = size.grid
    g = grid.n_cells
    rates = default_profile(grid, size.daily_orders).rates
    share = rates.sum(axis=1) / rates.sum()
    out = []
    for w in range(n_windows):
        start = w * WINDOW_S
        clock = day_start_s + start
        hour = int((clock % 86400.0) // 3600)
        created = rng.poisson(rates[:, hour] * WINDOW_S / 3600.0)
        n_total = rng.poisson(size.drivers * share)
        n_idle = rng.binomial(n_total, rng.uniform(0.3, 0.9, g))
        n_open = rng.poisson(0.5 * created)
        radius = rng.choice(CANDIDATES, g)
        logit = 0.8 * np.log1p(n_idle) - 0.6 * np.log1p(n_open) + 0.5 * radius - 0.5 + rng.normal(0, 0.3, g)
        ofr = np.where(created > 0, 1.0 / (1.0 + np.exp(-logit)), 0.0)
        apd = np.where(ofr > 0, radius * rng.uniform(0.3, 0.7, g), 0.0)
        busy = 1.0 - n_idle / np.maximum(n_total, 1)
        dur = np.where(n_total > 0, np.clip(busy + rng.normal(0, 0.05, g), 0.0, 1.0), 0.0)
        revenue = created * ofr * rng.uniform(8.0, 12.0, g)
        tod = time_of_day(clock)
        snapshot = WindowSnapshot(window=w, start_s=start, tod=int(tod), n_idle=n_idle, n_open=n_open, n_total=n_total)
        rows = [
            MarketWindow(grid=i, window=w, start_s=start, n_idle=int(n_idle[i]), n_open=int(n_open[i]),
                         n_total=int(n_total[i]), ofr=float(ofr[i]), apd_km=float(apd[i]), dur=float(dur[i]),
                         revenue=float(revenue[i]), radius_km=float(radius[i]), tod=tod)
            for i in range(g)
        ]
        out.append((snapshot, rows))
    return out


def _dataset(rng, size: Size, n_windows: int, episode: int, tracer: Optional[Tracer]) -> TrainingData:
    rows = [r for _, window_rows in market_log(rng, size, n_windows, MORNING_S) for r in window_rows]
    layout = FeatureLayout(seq_len=SEQ_LEN, side_count=size.side)
    if tracer is None:
        return dataset_from_windows(rows, layout, episode=episode)
    return tracer.timed("optimizer.dataset", len(rows), dataset_from_windows, rows, layout, episode)


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


@dataclass
class ExploreState:
    sim: Simulation
    ticks: int


class Explore:
    """One exploration episode per operation: synthetic morning demand, 1,000
    drivers and ``RandomRadius`` over the candidate set, stepped tick by tick
    the way ``sim.run`` steps it, so that construction falls in set-up."""

    reusable = False  # an episode consumes its order stream

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, episode: int, tracer: Optional[Tracer]) -> ExploreState:
        size, grid = self.size, self.size.grid
        demand_seed, sim_seed, radius_seed = (int(v) for v in np.random.SeedSequence([seed, episode]).generate_state(3))
        profile = default_profile(grid, size.daily_orders)
        args = (profile, grid, demand_seed, size.horizon_s, MORNING_S)
        stream = synth_demand(*args) if tracer is None else tracer.timed("demand.synth", 0, synth_demand, *args)
        source = RandomRadius(CANDIDATES, grid.n_cells, radius_seed)
        if tracer is not None:
            source = TimedRadiusSource(source, tracer)
        config = SimConfig(grid=grid, n_drivers=size.drivers, speed_kmh=SPEED_KMH, radius_source=source,
                           day_start_s=MORNING_S, seed=sim_seed)
        sim = Simulation(config, stream) if tracer is None else tracer.timed("sim.init", 0, Simulation, config, stream)
        return ExploreState(sim=sim, ticks=int(round(size.horizon_s / config.tick_s)))

    def op(self, state: ExploreState, seed: int, tracer: Optional[Tracer]) -> Outcome:
        sim = state.sim
        idle = int(DriverStatus.IDLE)
        start = time.perf_counter()
        for _ in range(state.ticks):
            if tracer is None:
                sim.step()
                continue
            matched = sim.matched
            t0 = time.perf_counter()
            sim.step()
            t1 = time.perf_counter()
            # the span's size is 1 when the step closed a metric window
            tracer.add("sim.step", t0, t1, int(sim.tick_count % sim.config.ticks_per_window == 0))
            tracer.add("sim.open", t1, t1, len(sim.open))
            tracer.add("sim.idle", t1, t1, int(np.count_nonzero(sim.fleet.status == idle)))
            tracer.add("sim.matches", t1, t1, sim.matched - matched)
        measured = time.perf_counter() - start
        result = EpisodeResult(windows=sim.windows, summary=sim.summary(), matches=sim.matches)
        s = result.summary
        return Outcome(
            measured_s=measured,
            items=s.created,
            digest=_digest(repr([astuple(m) for m in result.matches]).encode(),
                           repr([astuple(w) for w in result.windows]).encode()),
            problems=self.check(result, state.ticks // sim.config.ticks_per_window),
            counts={"created": s.created, "matched": s.matched, "expired": s.expired},
        )

    def check(self, result: EpisodeResult, n_windows: int) -> list[str]:
        s, problems = result.summary, []
        if s.created != s.matched + s.expired + s.open_at_end:
            problems.append(f"created {s.created} != matched {s.matched} + expired {s.expired} + open {s.open_at_end}")
        if any(m.pickup_km > m.radius_km for m in result.matches):
            problems.append("a pickup distance exceeds its radius")
        if any(c > 1 for c in Counter((m.t_match, m.driver_id) for m in result.matches).values()):
            problems.append("a driver won two matches in one tick")
        if len({m.order_id for m in result.matches}) != len(result.matches):
            problems.append("an order was matched twice")
        if len(result.windows) != self.size.grid.n_cells * n_windows:
            problems.append(f"{len(result.windows)} window rows, expected {self.size.grid.n_cells * n_windows}")
        if not all(0.0 <= w.ofr <= 1.0 for w in result.windows) or not 0.0 <= s.ofr <= 1.0:
            problems.append("an ofr lies outside [0, 1]")
        return problems


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


@dataclass
class DecideState:
    layout: FeatureLayout
    model: TransformerRegressor
    feature_stats: object
    label_stats: object
    day: list


class Decide:
    """One deployment day per operation: a ``PredictorRadiusSource.radii`` call
    at every 5-minute window, the history growing by one window per call."""

    reusable = True

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, episode: int, tracer: Optional[Tracer]) -> DecideState:
        size = self.size
        rng = np.random.default_rng(seed)
        data = _dataset(rng, size, size.stats_windows, 0, tracer)
        layout = data.layout
        model = TransformerRegressor(ModelConfig(seq_len=SEQ_LEN, input_dim=layout.dim), seed=seed)
        return DecideState(layout=layout, model=model, feature_stats=fit_norm_stats(data.real_rows()),
                           label_stats=fit_norm_stats(data.labels), day=market_log(rng, size, size.day_windows, 0.0))

    def op(self, state: DecideState, seed: int, tracer: Optional[Tracer]) -> Outcome:
        model = state.model if tracer is None else TracedModel(state.model, tracer)
        predictor = ModelPredictor(model, state.label_stats)
        if tracer is not None:
            predictor = TimedPredictor(predictor, tracer)
        candidates = CandidateSet(CANDIDATES)
        source = PredictorRadiusSource(predictor, candidates, state.layout, state.feature_stats, state.label_stats)
        g = state.layout.n_cells
        history: list[MarketWindow] = []
        out = Outcome()
        chosen = []
        for snapshot, rows in state.day:
            t0 = time.perf_counter()
            radii = source.radii(snapshot, history)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.add("optimizer.radii", t0, t1, len(history))
            out.call_ms.append((t1 - t0) * 1e3)
            out.measured_s += t1 - t0
            radii = np.asarray(radii, dtype=float)
            chosen.append(radii)
            out.problems += self.check(radii, source.decisions, snapshot.window, g, len(chosen))
            history.extend(rows)
        out.items = g * len(chosen)
        out.digest = _digest(np.concatenate(chosen).tobytes())
        return out

    @staticmethod
    def check(radii: np.ndarray, decisions: list, window: int, g: int, calls: int) -> list[str]:
        problems = []
        if radii.shape != (g,) or not np.all(np.isfinite(radii)) or not np.all(np.isin(radii, CANDIDATES)):
            problems.append(f"window {window}: radii are not {g} finite candidate values")
        latest = decisions[-g:]
        if len(decisions) != g * calls or [d.grid for d in latest] != list(range(g)) or any(
            d.window != window or d.chosen_radius != r for d, r in zip(latest, radii)
        ):
            problems.append(f"window {window}: decisions are not one per grid matching the radii")
        return problems


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    model: TransformerRegressor
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


class Train:
    """One WESM training run per operation on a dataset built from generated
    window logs, split by episode, with the default ``TrainConfig`` except
    epochs and seed (batch 1024, test-set evaluation every step)."""

    reusable = True  # each run trains a copy of the initial model

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, episode: int, tracer: Optional[Tracer]) -> TrainState:
        size = self.size
        rng = np.random.default_rng(seed)
        parts = [_dataset(rng, size, size.episode_windows, e, tracer) for e in range(size.episodes)]
        data = TrainingData(
            **{k: np.concatenate([getattr(p, k) for p in parts])
               for k in ("features", "labels", "pad_rows", "grids", "windows", "episodes")},
            layout=parts[0].layout,
        )
        train_mask, test_mask = data.split_by_episode(test_fraction=0.2, seed=seed)
        feature_stats = fit_norm_stats(data.real_rows())
        if tracer is None:
            x = data.normalized_features(feature_stats)
        else:
            x = tracer.timed("optimizer.dataset", len(data), data.normalized_features, feature_stats)
        y = apply_norm(data.labels, fit_norm_stats(data.labels))
        model = TransformerRegressor(ModelConfig(seq_len=SEQ_LEN, input_dim=data.layout.dim), seed=seed)
        return TrainState(model=model, train_x=x[train_mask], train_y=y[train_mask],
                          test_x=x[test_mask], test_y=y[test_mask])

    def op(self, state: TrainState, seed: int, tracer: Optional[Tracer]) -> Outcome:
        model = copy.deepcopy(state.model)
        if tracer is not None:
            model = TracedModel(model, tracer)
        cfg = TrainConfig(epochs=self.size.epochs, seed=seed)
        t0 = time.perf_counter()
        result = train(model, state.train_x, state.train_y, state.test_x, state.test_y, StrategyConfig(kind="WESM"), cfg)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.add("training.train", t0, t1, len(result.steps))
        return Outcome(
            measured_s=t1 - t0,
            items=len(state.train_x) * cfg.epochs,
            digest=_digest(result.train_losses.tobytes(), result.test_losses.tobytes(), result.weights.tobytes()),
            problems=self.check(result),
        )

    @staticmethod
    def check(result) -> list[str]:
        problems = []
        if not (np.all(np.isfinite(result.train_losses)) and np.all(np.isfinite(result.test_losses))):
            problems.append("a loss is not finite")
        w = result.weights
        if np.any(w < 0) or not np.allclose(w.sum(axis=1), 1.0):
            problems.append("task weights leave the simplex")
        weighted = (w * result.train_losses).sum(axis=1)
        if not weighted[-1] < weighted[0]:
            problems.append(f"weighted train loss did not fall: first {weighted[0]:.4g}, last {weighted[-1]:.4g}")
        return problems


WORKLOADS = {"explore": Explore, "decide": Decide, "train": Train}
