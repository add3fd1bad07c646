"""The benchmark's three workloads: seeded inputs, timed work, output checks.

Each workload is driven by one closed-loop client: a unit of work (a CLI
job, a ``sample_shot`` call or an item) starts only after the previous one
has finished.  Inputs come from the workload seed alone.  Only calls into
the package are timed; generating inputs and checking outputs against the
benchmark's own oracles happen outside the timed region.

A workload object is made in three steps:

* the constructor generates raw inputs (plain NumPy arrays, untimed);
* :meth:`build` turns them into the package's validated objects (this is
  the program's share of set-up, timed by the caller);
* :meth:`run` does timed work until a time budget is spent, or repeats a
  given plan exactly, and checks every output.

The package is called through module attributes looked up at call time
(``qm.from_realization``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from array import array
from pathlib import Path

import numpy as np

import qmeasure as qm
from qmeasure import cli

WHY = {
    "simulate": (
        "CLI simulate jobs at 1 and 10 steps plus back-to-back sample_shot calls: "
        "per-shot overhead in the sampler and record writing dominate"
    ),
    "extract": (
        "random (8, 32, 8) realizations with a full-rank 32-channel ancilla: table "
        "extraction and pairwise orthonormality loops dominate, factorize refuses"
    ),
    "dilate": (
        "random 16-atom instruments on dim 16: unitary completion on a 256-dim space "
        "dominates, factorize accepts, closed-form model checks run"
    ),
}

SIZES = {
    # shot-steps per CLI job; each round runs one job per entry of ``steps``
    "simulate": {"shot_steps": 10000, "steps": [1, 10]},
    "extract": {"dim_s": 8, "dim_k": 32, "atoms": 8, "pool": 32},
    "dilate": {"dim_s": 16, "atoms": 16, "pool": 32},
}

# Share of the simulate time budget given to CLI rounds; the rest measures
# single-shot latency.  The last round may overrun its share; the shot phase
# still gets its full share.
ROUNDS_SHARE = 0.7
TEMPLATE = Path(__file__).resolve().parent / "scenarios" / "two_channel_model.json"

# Output-check tolerances.  Z_MAX bounds the first-step outcome frequencies
# of a job or of the shot phase: the two-sided false-alarm rate per atom is
# 3.8e-8, so a correct sampler essentially never trips it.
ROUND_TRIP_TOL = 1e-9
NORM_TOL = 1e-8
Z_MAX = 5.5

# Iterations of the reference computation (about 10 ms here), and the
# number of sample_shot calls timed between two reference readings.
REF_ITERATIONS = 350
SHOT_BLOCK = 2000


def reference_s() -> float:
    """Wall time of a fixed computation shaped like the workloads' cost.

    Every workload spends its time in NumPy calls on small arrays, made from
    Python loops: einsum contractions, vdot/axpy updates, cumulative sums.
    The reference makes the same kinds of calls.  On a shared machine the
    speed of a core drifts by up to 1.8x over seconds to minutes, and code
    of this kind drifts by about the same factor (a pure-Python integer loop
    drifts less, so it is left out).  A step's time over the mean of the
    readings before and after it is its time in reference units (``ref``).
    """
    start = time.perf_counter()
    pi = np.full((2, 2, 2, 2), 0.5 + 0j)
    psi = np.full(2, 0.5 + 0.5j)
    q = np.full((4, 8), 0.25 + 0j)
    w = np.ones(8)
    u = np.full(256, 0.0625 + 0j)
    v = np.ones(256, dtype=complex)
    for _ in range(REF_ITERATIONS):
        amp = np.einsum("cwab,b->cwa", pi, psi)
        sq = np.einsum("cwa,cwa->cw", amp.conj(), amp).real
        np.searchsorted(np.cumsum(sq.reshape(-1)), 0.5)
        np.einsum("nw,nw,w->", q.conj(), q, w)
        v = v - u * np.vdot(u, v)
    return time.perf_counter() - start


class Calibration:
    """Reference readings between timed steps; off for traced runs."""

    def __init__(self, readings: array, on: bool):
        self.on = on
        self.readings = readings
        self.last = self._read() if on else 0.0

    def _read(self) -> float:
        r = reference_s()
        self.readings.append(r)
        return r

    def around(self) -> float:
        """Mean of the previous reading and a new one (0 when off)."""
        if not self.on:
            return 0.0
        nxt = self._read()
        mean = 0.5 * (self.last + nxt)
        self.last = nxt
        return mean

    def to_ref(self, seconds: float) -> float:
        """Work of ``seconds`` that just finished, in reference units."""
        return seconds / self.around() if self.on else 0.0


class Laps:
    """Wall time of one unit, and the reference-unit time of each step.

    Call the object after each step of the unit.  Reading the reference
    between steps (not only between units) pairs each step with the core
    speed of its own moment.
    """

    def __init__(self, cal: Calibration):
        self.cal = cal
        self.wall = 0.0
        self.steps: list[float] = []
        self.start = time.perf_counter()

    def __call__(self) -> None:
        dt = time.perf_counter() - self.start
        self.wall += dt
        self.steps.append(self.cal.to_ref(dt))
        self.start = time.perf_counter()


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def choi(ops, dim: int) -> np.ndarray:
    """Choi matrix of a Kraus list, row-major vectorization."""
    if not len(ops):
        return np.zeros((dim * dim, dim * dim), dtype=complex)
    x = np.stack([np.asarray(a).reshape(-1) for a in ops])
    return x.T @ x.conj()


def frequency_z(counts: np.ndarray, probs: np.ndarray) -> float:
    """Worst per-atom deviation of observed frequencies, in binomial sigmas."""
    n = counts.sum()
    worst = 0.0
    for c, p in zip(counts, probs):
        if p <= 1e-12 or p >= 1.0 - 1e-12:
            worst = max(worst, math.inf if abs(c / n - p) > 1e-12 else 0.0)
            continue
        worst = max(worst, abs(c / n - p) / math.sqrt(p * (1.0 - p) / n))
    return worst


class Result:
    """Raw measurements and check outcomes of one run."""

    def __init__(self):
        self.unit_s: list[float] = []  # timed duration of each unit
        # Reference-unit times by kind of step: the step's position in an
        # item, or the job's position in a simulate round.
        self.step_ref: dict[int, list[float]] = {}
        self.round_work = 0  # work in one item or one simulate round
        self.work = 0  # work units done (shot-steps or items)
        self.latency_ns = array("q")  # per-call latency, simulate shot phase
        self.latency_ref = array("d")  # the same in reference units
        self.ref_s = array("d")  # every reference reading
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict[str, int] = {}
        self.plan: dict[str, int] = {}

    def add_step(self, kind: int, ref: float) -> None:
        self.step_ref.setdefault(kind, []).append(ref)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    @property
    def timed_s(self) -> float:
        return float(sum(self.unit_s)) + float(sum(self.latency_ns)) * 1e-9


def _unit(tracer, uid: int):
    return tracer.unit(uid) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _complex(nested) -> np.ndarray:
    arr = np.array(nested, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class Simulate:
    """``qmeasure simulate`` jobs in-process, then a ``sample_shot`` phase."""

    name = "simulate"

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.shot_steps = int(sizes["shot_steps"])
        self.steps = [int(s) for s in sizes["steps"]]
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        raw = json.loads(TEMPLATE.read_text(encoding="utf-8"))
        self.dim_s = int(raw["dim_s"])
        self.labels = list(raw["outcomes"])
        psi = random_state(rng, self.dim_s)
        raw["model"]["initial_state"] = [[float(z.real), float(z.imag)] for z in psi]
        self.scenario = workdir / f"scenario-{seed}.json"
        self.scenario.write_text(json.dumps(raw, indent=2), encoding="utf-8")
        # Closed-form first-step law from the raw tables (Born rule on the
        # Kraus operators sqrt(beta_i nu(w)) W[i,k,n](w)).
        beta = np.array([b if not isinstance(b, list) else b[0] for b in raw["model"]["beta"]])
        nu = np.array([raw["measure"][lab] for lab in self.labels], dtype=float)
        w = _complex(raw["model"]["w"])  # (C, k, n, M, d, d)
        amp = np.einsum("cknmab,b->cknma", w, psi)
        self.channels = w.shape[0]
        self.law = np.einsum("c,m,cknma->m", beta, nu, np.abs(amp) ** 2)
        self.shot_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
        self.model = None
        self._digests: dict[tuple[int, int], str] = {}
        self.records_bytes = 0

    def build(self) -> None:
        self.model = cli.parse_scenario(str(self.scenario)).payload

    def _job_seed(self, rnd: int, j: int) -> int:
        return int(np.random.SeedSequence([self.seed, 0, rnd, j]).generate_state(1)[0] >> 1)

    def job(self, res: Result, rnd: int, j: int, cal: Calibration, tracer=None, timed: bool = True) -> None:
        """Run and check one CLI job; record its time when ``timed``."""
        steps = self.steps[j]
        shots = self.shot_steps // steps
        out = self.workdir / f"records-{self.seed}-{j}.csv"
        argv = [
            "simulate", str(self.scenario), "--shots", str(shots), "--steps", str(steps),
            "--seed", str(self._job_seed(rnd, j)), "--output", str(out),
        ]
        res.attempted += 1
        buf = io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with _unit(tracer, len(res.unit_s)), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a benchmark error
            res.fail(f"job {rnd}/{j}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            elapsed = time.perf_counter() - start
        if timed:  # read the reference before the checks, right after the job
            res.unit_s.append(elapsed)
            res.add_step(j, cal.to_ref(elapsed))
            res.work += shots * steps
        self.check_job(res, f"job {rnd}/{j}", code, buf.getvalue(), out, shots, steps)
        if out.exists():
            data = out.read_bytes()
            out.unlink()
            if tracer is not None:
                self.records_bytes += len(data)
            digest = hashlib.sha256(data).hexdigest()
            first = self._digests.setdefault((rnd, j), digest)
            if first != digest:
                res.fail(f"job {rnd}/{j}: records differ from an earlier run with the same seed")

    def check_job(self, res: Result, what: str, code, report: str, path: Path, shots: int, steps: int) -> None:
        if code == 1:
            # The CLI's own statistic is a 3-sigma test with no multiplicity
            # correction, so it fails on about 0.3% of correct jobs.  Such a
            # job still counts as correct when that is its only failing check
            # and the records pass this benchmark's Z_MAX test below.
            try:
                failing = [c["name"] for c in json.loads(report)["checks"] if not c["passed"]]
            except (ValueError, KeyError, TypeError):
                failing = ["<unreadable report>"]
            if failing != ["within-3-sigma"]:
                res.fail(f"{what}: exit code 1, failing checks {failing}")
                return
            res.notes["cli_3sigma_alarms"] = res.notes.get("cli_3sigma_alarms", 0) + 1
        elif code != 0:
            res.fail(f"{what}: exit code {code}")
            return
        problem = check_records(path, shots, steps, self.dim_s, self.labels, self.channels, self.law)
        if problem:
            res.fail(f"{what}: {problem}")

    def run(self, seconds: float | None = None, plan: dict | None = None, tracer=None) -> Result:
        res = Result()
        res.round_work = self.shot_steps * len(self.steps)
        cal = Calibration(res.ref_s, plan is None)
        rounds = 0
        budget = None if seconds is None else seconds * ROUNDS_SHARE
        while (plan["rounds"] > rounds) if plan else (rounds == 0 or sum(res.unit_s) < budget):
            for j in range(len(self.steps)):
                self.job(res, rounds, j, cal, tracer)
            rounds += 1
        self.shot_phase(res, seconds, plan, tracer, cal)
        res.plan = {"rounds": rounds, "shots": len(res.latency_ns)}
        return res

    def shot_phase(self, res: Result, seconds, plan, tracer, cal: Calibration) -> None:
        rng = np.random.default_rng(self.shot_seed)
        counts = np.zeros(len(self.labels))
        index = {lab: i for i, lab in enumerate(self.labels)}
        budget_ns = None if seconds is None else seconds * (1.0 - ROUNDS_SHARE) * 1e9
        spent = 0
        lat = res.latency_ns
        model = self.model
        bad = 0
        block = 0
        while (plan["shots"] > len(lat)) if plan else spent < budget_ns:
            with _unit(tracer, len(res.unit_s) + len(lat)):
                t0 = time.perf_counter_ns()
                shot = qm.sample_shot(model, rng)
                t1 = time.perf_counter_ns()
            lat.append(t1 - t0)
            spent += t1 - t0
            post = shot.posterior
            if (
                shot.outcome not in index
                or abs(math.sqrt(float(np.vdot(post, post).real)) - 1.0) > NORM_TOL
                or not 0.0 <= shot.weight <= 1.0
            ):
                bad += 1
            else:
                counts[index[shot.outcome]] += 1
            block += 1
            if cal.on and (block == SHOT_BLOCK or spent >= budget_ns):
                mean = cal.around()
                res.latency_ref.extend([ns * 1e-9 / mean for ns in lat[-block:]])
                block = 0
        res.attempted += len(lat)
        for _ in range(bad):
            res.fail("sample_shot: bad outcome, posterior norm or weight")
        # One more operation: the phase's outcome frequencies against the law.
        res.attempted += 1
        z = frequency_z(counts, self.law)
        if z > Z_MAX:
            res.fail(f"sample_shot outcome frequencies off the closed-form law by {z:.2f} sigma")

    def recheck(self, res: Result) -> None:
        """Re-run round 0's jobs with the same seeds (untimed); records must match."""
        cal = Calibration(res.ref_s, False)
        for j in range(len(self.steps)):
            self.job(res, 0, j, cal, timed=False)


def check_records(path: Path, shots: int, steps: int, dim: int, labels, channels: int, law) -> str:
    """First problem found in a simulate record file, or '' if there is none.

    Streams the file so the check adds no memory to the workload's peak.
    """
    head = ["step", "outcome", "channel", "prob", "weight"]
    head += [f"state_re_{i}" for i in range(dim)] + [f"state_im_{i}" for i in range(dim)]
    index = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros(len(labels))
    rows = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        return f"cannot read records: {exc}"
    with fh:
        if fh.readline().rstrip("\n").split(",") != head:
            return "record header mismatch"
        for line in fh:
            f = line.rstrip("\n").split(",")
            if len(f) != len(head):
                return f"row {rows}: {len(f)} fields"
            try:
                step = int(f[0])
                channel = int(f[2])
                prob = float(f[3])
                weight = float(f[4])
                vals = [float(x) for x in f[5:]]
            except ValueError:
                return f"row {rows}: unparsable field"
            if step != rows % steps:
                return f"row {rows}: step {step}, expected {rows % steps}"
            if f[1] not in index or not 0 <= channel < channels:
                return f"row {rows}: unknown outcome or channel"
            if not (0.0 < prob <= 1.0 + 1e-12 and 0.0 <= weight <= 1.0):
                return f"row {rows}: prob {prob} or weight {weight} out of range"
            if abs(math.sqrt(math.fsum(v * v for v in vals)) - 1.0) > NORM_TOL:
                return f"row {rows}: posterior norm off by more than {NORM_TOL:g}"
            if step == 0:
                counts[index[f[1]]] += 1
            rows += 1
    if rows != shots * steps:
        return f"{rows} rows, expected {shots * steps}"
    z = frequency_z(counts, law)
    if z > Z_MAX:
        return f"first-step outcome frequencies off the closed-form law by {z:.2f} sigma"
    return ""


# ---------------------------------------------------------------------------
# extract and dilate: items cycling through a seeded pool
# ---------------------------------------------------------------------------


class _Items:
    """Shared loop for item workloads; subclasses define ``item`` and ``check``.

    ``item(idx, lap)`` makes the program calls of one item and calls
    ``lap()`` after each group of calls that takes roughly 0.1 to 0.3 s.
    """

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.pool = int(sizes["pool"])
        self.labels = tuple(f"w{i}" for i in range(int(sizes["atoms"])))
        self.records_bytes = 0

    def run(self, seconds: float | None = None, plan: dict | None = None, tracer=None) -> Result:
        res = Result()
        res.round_work = 1
        cal = Calibration(res.ref_s, plan is None)
        n = 0
        while (plan["items"] > n) if plan else (n == 0 or sum(res.unit_s) < seconds):
            idx = n % self.pool
            res.attempted += 1
            laps = Laps(cal)
            try:
                with _unit(tracer, n):
                    out = self.item(idx, laps)
            except Exception as exc:  # a crash is a failed item, not a benchmark error
                res.fail(f"item {n}: raised {type(exc).__name__}: {exc}")
                out = None
            if out is not None:
                res.unit_s.append(laps.wall)
                for kind, ref in enumerate(laps.steps):
                    res.add_step(kind, ref)
                res.work += 1
                problem = self.check(idx, out)
                if problem:
                    res.fail(f"item {n}: {problem}")
            n += 1
        res.plan = {"items": n}
        return res

    def recheck(self, res: Result) -> None:
        pass


class Extract(_Items):
    """Table extraction, invariants and gauge moves on dense realizations."""

    name = "extract"

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        super().__init__(seed, sizes, workdir)
        ds, dk, m = int(sizes["dim_s"]), int(sizes["dim_k"]), int(sizes["atoms"])
        self.dim_s = ds
        self.raw = []
        for _ in range(self.pool):
            rng = self.rng
            # distinct eigenvalues at least 0.5/sum apart: one channel each
            ev = np.arange(1, dk + 1) + rng.uniform(0.0, 0.5, dk)
            ev = ev / ev.sum()
            vecs = haar_unitary(rng, dk)
            s = (vecs * ev) @ vecs.conj().T
            s = 0.5 * (s + s.conj().T)
            # A Haar basis cut into equal blocks: every item has the same
            # shapes, so item cost does not depend on the seed.
            basis = haar_unitary(rng, dk)
            bounds = np.linspace(0, dk, m + 1).round().astype(int)
            cols = [basis[:, bounds[a]:bounds[a + 1]] for a in range(m)]
            u = haar_unitary(rng, ds * dk)
            self.raw.append({
                "s": s, "ev": ev, "vecs": vecs, "cols": cols, "u": u,
                "rotation": haar_unitary(rng, dk),
                "rotation_phase": float(rng.uniform(0.0, 2 * np.pi)),
                "z": [haar_unitary(rng, c.shape[1]) for c in cols],
                "j": [np.exp(1j * rng.uniform(0.0, 2 * np.pi, (1, 1))) for _ in range(dk)],
                "phase": float(rng.uniform(0.0, 2 * np.pi)),
            })
        self.items = None

    def build(self) -> None:
        space = qm.OutcomeSpace(self.labels)
        self.items = [
            qm.StatisticalRealization(
                self.dim_s,
                qm.DensityOperator(r["s"]),
                qm.ProjectionValuedMeasure(space, tuple(c @ c.conj().T for c in r["cols"])),
                qm.UnitaryOperator(r["u"]),
            )
            for r in self.raw
        ]

    def item(self, idx: int, lap) -> dict:
        g = self.items[idx]
        r = self.raw[idx]
        sr = qm.from_realization(g)
        lap()
        devs = sr.orthonormality_deviations()
        lap()
        t_sr = qm.instrument_of_sr(sr)
        lap()
        t_g = qm.instrument_of(g)
        lap()
        same = qm.instruments_equal(t_sr, t_g)
        inv_a = qm.invariants(g)
        lap()
        inv_b = qm.invariants(qm.apply_unitary_equivalence(g, r["rotation"], r["rotation_phase"]))
        lap()
        cmp = qm.compare_invariants(inv_a, inv_b)
        fac = qm.factorize(sr)
        sr2 = qm.apply_transform(sr, z=r["z"], j=r["j"], phase=r["phase"])
        eqv = qm.equivalent(sr, sr2)
        lap()
        return {"sr": sr, "devs": devs, "t_sr": t_sr, "same": same, "inv": (inv_a, inv_b),
                "cmp": cmp, "fac": fac, "eqv": eqv}

    def check(self, idx: int, out: dict) -> str:
        r = self.raw[idx]
        ds, dk = self.dim_s, r["s"].shape[0]
        # Choi round trip: Kraus operators straight from the generated
        # unitary, ancilla eigenvectors and PVM columns.
        u4 = r["u"].reshape(ds, dk, ds, dk)
        phis = r["vecs"] * np.sqrt(r["ev"])
        for a, cols in enumerate(r["cols"]):
            ops = np.einsum("mn,ambl,lk->knab", cols.conj(), u4, phis).reshape(-1, ds, ds)
            if np.max(np.abs(choi(ops, ds) - choi(out["t_sr"].kraus[a], ds))) > ROUND_TRIP_TOL:
                return f"Choi round trip fails at atom {a}"
        if not out["same"]:
            return "instruments_equal rejects instrument_of_sr against instrument_of"
        # Table orthonormality from a Gram matrix of the extracted tables.
        sr = out["sr"]
        pairs = [(i, k) for i, (_, ki) in enumerate(sr.beta) for k in range(ki)]
        rows = tuple(np.array(pairs).T)
        weight = np.sqrt(np.tile(sr.nu.as_array(), sr.q.shape[2]))
        q = sr.q[rows].reshape(len(pairs), -1) * weight
        wt = sr.w[rows].reshape(len(pairs), -1, ds, ds) * weight[None, :, None, None]
        mat = wt.transpose(1, 2, 0, 3).reshape(-1, len(pairs) * ds)
        dev = max(
            np.max(np.abs(q.conj() @ q.T - np.eye(len(pairs)))),
            np.max(np.abs(mat.conj().T @ mat - np.eye(len(pairs) * ds))),
            *out["devs"],
        )
        if dev > ROUND_TRIP_TOL:
            return f"table orthonormality deviation {dev:.3e}"
        # Channel probability tables: |P(w) phi_i|^2, channels by weight descending.
        order = np.argsort(r["ev"])[::-1]
        expected = np.array([[np.linalg.norm(c.conj().T @ r["vecs"][:, i]) ** 2 for c in r["cols"]] for i in order])
        for inv in out["inv"]:
            if inv.channel_nu.shape != expected.shape or np.max(np.abs(inv.channel_nu - expected)) > ROUND_TRIP_TOL:
                return "channel probability tables disagree with the generated ancilla"
        if not out["cmp"].equal(ROUND_TRIP_TOL):
            return "invariants change under the ancilla rotation"
        if type(out["fac"]).__name__ != "NotFactorizable":
            return "factorize accepted a dense 32-channel realization"
        if not out["eqv"]:
            return "equivalent rejects a gauge transform"
        return ""


class Dilate(_Items):
    """Dilation in both modes, factorization and closed-form model checks."""

    name = "dilate"

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        super().__init__(seed, sizes, workdir)
        ds, m = int(sizes["dim_s"]), int(sizes["atoms"])
        self.dim_s = ds
        self.raw = []
        for _ in range(self.pool):
            iso = haar_unitary(self.rng, ds * m)[:, :ds]  # stacked Kraus operators
            self.raw.append({
                "ops": [iso[a * ds:(a + 1) * ds] for a in range(m)],
                "psi": random_state(self.rng, ds),
            })
        self.items = None

    def build(self) -> None:
        space = qm.OutcomeSpace(self.labels)
        self.items = [qm.KrausInstrument(space, [[a] for a in r["ops"]], self.dim_s) for r in self.raw]

    def item(self, idx: int, lap) -> dict:
        t = self.items[idx]
        report = qm.validate(t)
        lap()
        g_min = qm.dilate(t, mode="minimal")
        lap()
        g_inv = qm.dilate(t, mode="invariant")
        lap()
        back = (qm.instrument_of(g_min), qm.instrument_of(g_inv))
        same = [qm.instruments_equal(b, t) for b in back]
        lap()
        qsr = qm.factorize(qm.from_realization(g_inv))
        model = qm.MeasurementModel(qsr, self.raw[idx]["psi"])
        verdict = qm.verify_model(model, ROUND_TRIP_TOL)
        law = qm.output_law(model)
        lap()
        return {"report": report, "back": back, "same": same, "qsr": qsr, "verdict": verdict, "law": law}

    def check(self, idx: int, out: dict) -> str:
        r = self.raw[idx]
        ds = self.dim_s
        if not out["report"].passed:
            return f"validate rejects a valid instrument: {out['report']}"
        for mode, inst, same in zip(("minimal", "invariant"), out["back"], out["same"]):
            for a, op in enumerate(r["ops"]):
                if np.max(np.abs(choi([op], ds) - choi(inst.kraus[a], ds))) > ROUND_TRIP_TOL:
                    return f"{mode} dilation round trip fails at atom {a}"
            if not same:
                return f"instruments_equal rejects the {mode} round trip"
        if type(out["qsr"]).__name__ != "QuantumStochasticRep":
            return f"factorize refused an invariant dilation: {out['qsr']}"
        if not out["verdict"].passed:
            return f"verify_model fails: {out['verdict']}"
        born = np.array([np.linalg.norm(op @ r["psi"]) ** 2 for op in r["ops"]])
        if np.max(np.abs(out["law"].total.as_array() - born)) > ROUND_TRIP_TOL:
            return "output_law disagrees with the Born rule on the source instrument"
        return ""


WORKLOADS = {"simulate": Simulate, "extract": Extract, "dilate": Dilate}
