"""The perfbench workloads: inputs, one repetition of each, and the checks.

Inputs come from the stdlib ``random`` module seeded with the benchmark's
``--seed``, so generating them imports nothing from the program and the same
seed always gives the same instances.  One operation is one (instance,
scheme) solve; it fails when the solver raises or when a feasible
allocation breaks one of the invariants in ``check_outcome``.  Nothing
here imports the program: worker.py passes the imported package in as nf.
"""

import hashlib
import importlib
import json
import math
import random
import resource
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import Tracer

#: sha256 of the three files `noma-fbl montecarlo --seed 1` writes with
#: every other argument at its default.  A change of any output byte is a
#: regression unless these are re-pinned on purpose.
GOLDEN_MC_SEED1 = {
    "energy_vs_d1.csv": "67a630351481723379ab4986a170717f85a4aeb3de3e92817309d4e533fc2ecb",
    "feasibility_vs_d1_pmax.csv": "ef1c4e40a401e3fd7860d27f37e59cb65afcef19ffcb13e66a7561d8f4c84203",
    "manifest.json": "2a85d89bae80a9ef9fad5ae276bb77dd141cb4f20223a68da5878356f4f05096",
}
MC_FILES = tuple(GOLDEN_MC_SEED1)

#: Monte-Carlo CLI arguments per size; "full" is the CLI default grid
#: (1000 trials x 20 values of d1 x 3 budgets = 60,000 instances).
MC_ARGS = {
    "full": [],
    "tiny": ["--trials", "5", "--d1-grid", "100:120:10", "--pmax-dbm-grid", "25,30"],
}
MC_INSTANCES = {"full": 1000 * 20 * 3, "tiny": 5 * 3 * 2}

#: Instances per solve-cold repetition, and instances x timed passes per
#: solve-warm repetition.
COLD_INSTANCES = {"full": 300, "tiny": 6}
WARM_INSTANCES = {"full": 1000, "tiny": 20}
WARM_PASSES = {"full": 40, "tiny": 2}

RAYLEIGH_SCALE = 100.0
PAPER_D1_GRID = tuple(range(100, 291, 10))
PAPER_BUDGETS_DBM = (20.0, 25.0, 30.0)

# Relative slack for "equal to rounding" in the invariants.
_REL = 1e-9


class Instance:
    """One two-user instance, users already ordered by deadline."""

    __slots__ = ("ch", "s1", "s2", "budget")

    def __init__(self, ch, s1, s2, budget):
        self.ch, self.s1, self.s2, self.budget = ch, s1, s2, budget


def _rayleigh_gain(u: float) -> float:
    # |h|^2 for |h| = scale * sqrt(-2 ln(1 - u)), the program's own transform
    return RAYLEIGH_SCALE**2 * (-2.0 * math.log1p(-u))


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _ordered(nf, g1, g2, s1, s2, p_max_dbm):
    ch, s1, s2, _ = nf.order_by_deadline(nf.ChannelPair(g1, g2), s1, s2)
    return Instance(ch, s1, s2, nf.PowerBudget(nf.dbm_to_watts(p_max_dbm)))


def cold_instances(nf, seed: int, n: int) -> list[Instance]:
    """n independent instances over the range the CLI accepts.

    N1 log-uniform in 16..3000 bits, N2 = N1 x (log-uniform 0.5..2), each
    eps log-uniform in 1e-9..1e-3, D1 uniform in 100..600, D2 uniform in
    D1..1000, Rayleigh gains (scale 100), budget uniform in 10..30 dBm.
    Each variable is Latin-hypercube stratified over the n instances: its
    marginal is the one stated, and every seed covers the whole range, so
    run-to-run spread reflects the program rather than the draw.
    """
    rng = random.Random(seed)
    n_vars = 9
    strata = []
    for _ in range(n_vars):
        order = list(range(n))
        rng.shuffle(order)
        strata.append(order)
    out = []
    for i in range(n):
        u = [(strata[j][i] + rng.random()) / n for j in range(n_vars)]
        n1 = round(_log_uniform(u[0], 16, 3000))
        n2 = max(1, round(n1 * _log_uniform(u[1], 0.5, 2.0)))
        d1 = 100 + min(int(u[4] * 501), 500)
        d2 = d1 + min(int(u[5] * (1001 - d1)), 1000 - d1)
        s1 = nf.UserSpec(n1, _log_uniform(u[2], 1e-9, 1e-3), d1)
        s2 = nf.UserSpec(n2, _log_uniform(u[3], 1e-9, 1e-3), d2)
        out.append(
            _ordered(nf, _rayleigh_gain(u[6]), _rayleigh_gain(u[7]), s1, s2, 10.0 + 20.0 * u[8])
        )
    return out


def warm_instances(nf, seed: int, n: int) -> list[Instance]:
    """n instances of the paper's protocol.

    160 bits and eps 1e-7 for both users, D2 = 300, D1 drawn from the
    default d1 grid, budget drawn from 20/25/30 dBm, Rayleigh gains.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        d1 = rng.choice(PAPER_D1_GRID)
        p_max_dbm = rng.choice(PAPER_BUDGETS_DBM)
        g1, g2 = _rayleigh_gain(rng.random()), _rayleigh_gain(rng.random())
        s1 = nf.UserSpec(160, 1e-7, d1)
        s2 = nf.UserSpec(160, 1e-7, 300)
        out.append(_ordered(nf, g1, g2, s1, s2, p_max_dbm))
    return out


def energy_monotone_share(nf, instances) -> float:
    """Share of instances with a user outside the energy-monotone regime."""
    outside = sum(
        1
        for inst in instances
        if not (nf.energy_monotone(inst.s1) and nf.energy_monotone(inst.s2))
    )
    return outside / len(instances)


def _sinr_maps(scheme: str, p1, p2, g1, g2):
    if scheme == "sic-rx2":
        return p1 * g1 / (p2 * g1 + 1.0), p2 * g2
    if scheme == "tin":
        return p1 * g1 / (p2 * g1 + 1.0), p2 * g2 / (p1 * g2 + 1.0)
    if scheme == "sic-rx1":
        return p1 * g1, p2 * g2 / (p1 * g2 + 1.0)
    return p1 * g1, p2 * g2  # tdma: one user per slot


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL * max(abs(a), abs(b))


def check_outcome(kind: str, inst: Instance, outcome) -> str | None:
    """First broken invariant of a solve outcome, or None.

    kind is "noma" or "tdma".  Infeasible outcomes carry a typed verdict
    and have nothing to check.
    """
    a = outcome.allocation
    if a is None:
        return None if outcome.verdict is not None else "no allocation and no verdict"
    s1, s2, p_max = inst.s1, inst.s2, inst.budget.p_max
    if not _close(a.energy, a.m1 * a.p1 + a.m2 * a.p2):
        return "energy != m1*p1 + m2*p2"
    if a.m1 < s1.min_blocklength or a.m2 < s2.min_blocklength:
        return "blocklength below the model minimum"
    if kind == "noma":
        if a.m1 > s1.deadline or a.m2 > s2.deadline:
            return "blocklength beyond its deadline"
        if a.p1 + a.p2 > p_max * (1.0 + _REL):
            return "p1 + p2 > p_max"
    else:
        if a.m1 > s1.deadline or a.m1 + a.m2 > s2.deadline:
            return "time split beyond the deadlines"
        if max(a.p1, a.p2) > p_max * (1.0 + _REL):
            return "slot power > p_max"
    gamma1, gamma2 = _sinr_maps(a.scheme.value, a.p1, a.p2, inst.ch.g1, inst.ch.g2)
    if not (_close(gamma1, a.gamma1) and _close(gamma2, a.gamma2)):
        return f"{a.scheme.value} SINR maps do not give back gamma1, gamma2"
    return None


def outcome_key(outcome) -> str:
    """Canonical text of an outcome, for the outcome digest."""
    a = outcome.allocation
    if a is None:
        return f"infeasible:{outcome.verdict.value}"
    return (
        f"{a.scheme.value}:{a.m1!r}:{a.m2!r}:{a.p1!r}:{a.p2!r}:"
        f"{a.gamma1!r}:{a.gamma2!r}:{a.energy!r}"
    )


def failure_name(layer: str, exc: BaseException) -> str:
    """Exception accounting key: layer, type and the function that raised."""
    frames = traceback.extract_tb(exc.__traceback__)
    origin = f"{Path(frames[-1].filename).stem}.{frames[-1].name}" if frames else "?"
    return f"{layer}.raised:{type(exc).__name__}@{origin}"


class Tally:
    """Operation accounting for one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()  # "noma.raised:RuntimeError@fbl.f", "tdma.invariant:..."
        self.verdicts = Counter()  # "noma.verdict.rate-unreachable", "tdma.winner.tdma", ...
        self.digest = hashlib.sha256()

    def account(self, kind: str, inst: Instance, result) -> None:
        """Count one operation whose result is an outcome or the exception it raised."""
        self.attempted += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.failures[failure_name(kind, result)] += 1
            self.digest.update(f"{kind} raise:{type(result).__name__}\n".encode())
            return
        broken = check_outcome(kind, inst, result)
        if broken is not None:
            self.failed += 1
            self.failures[f"{kind}.invariant:{broken}"] += 1
        a = result.allocation
        label = f"verdict.{result.verdict.value}" if a is None else f"winner.{a.scheme.value}"
        self.verdicts[f"{kind}.{label}"] += 1
        self.digest.update(f"{kind} {outcome_key(result)}\n".encode())

    def repeat(self, kind: str, result, reference) -> None:
        """Count a repeated operation, which must give its reference outcome."""
        self.attempted += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.failures[failure_name(kind, result)] += 1
        elif result != reference:
            self.failed += 1
            self.failures[f"{kind}.invariant:outcome differs from the warm-up pass"] += 1

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": dict(self.failures),
            "verdicts": dict(self.verdicts),
            "digest": self.digest.hexdigest(),
        }


def mc_output_problems(out_dir: Path, golden: dict | None) -> tuple[dict, list[str]]:
    """Digests of the Monte-Carlo outputs and everything wrong with them.

    The manifest must list the sha256 of each CSV as written; with golden
    given, every file must also match its pinned digest byte for byte.
    """
    digests, problems = {}, []
    for name in MC_FILES:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if "manifest.json" in digests:
        try:
            listed = {
                o["path"]: o["sha256"]
                for o in json.loads((out_dir / "manifest.json").read_text())["outputs"]
            }
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"manifest.json unreadable: {exc!r}")
        else:
            for name, digest in digests.items():
                if name != "manifest.json" and listed.get(name) != digest:
                    problems.append(f"manifest sha256 of {name} does not match its bytes")
    if golden is not None:
        for name, want in golden.items():
            if digests.get(name) != want:
                problems.append(
                    f"{name} sha256 {digests.get(name, 'missing')[:12]} != golden {want[:12]}"
                )
    return digests, problems


def mc_trial_outcomes(nf, batch):
    """(instance, noma outcome, tdma outcome) for every trial of every cell.

    Reads TrialBatch.records; returns None when the batch has another
    layout, and the caller then reports these checks as absent.
    """
    try:
        cfg = batch.config
        s2 = cfg.user2_spec()
        out = []
        for (d1, p_max_dbm), recs in batch.records.items():
            s1 = cfg.user1_spec(d1)
            budget = nf.PowerBudget(nf.dbm_to_watts(p_max_dbm))
            for ch, rec in zip(batch.channels, recs):
                out.append((Instance(ch, s1, s2, budget), rec.noma, rec.tdma))
        return out
    except (AttributeError, TypeError):
        return None


def _attempt(solver, inst):
    try:
        return solver(inst.ch, inst.s1, inst.s2, inst.budget)
    except Exception as exc:  # accounted for by Tally, never fatal
        return exc


def rep_mc(nf, job, tally, result, tracer):
    """One `noma-fbl montecarlo` command through cli.main."""
    out_dir = Path(job["out"]) / "mc-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.iterdir():
        path.unlink()
    # The golden repetition is the default command at seed 1, whatever the size.
    seed, size = (1, "full") if job["golden"] else (job["seed"], job["size"])
    argv = ["montecarlo", "--seed", str(seed), "--out-dir", str(out_dir)]
    argv += MC_ARGS[size]
    instances = MC_INSTANCES[size]

    if tracer is not None:
        tracer.install(nf)
    cli = importlib.import_module(f"{nf.__name__}.cli")
    # Keep the batch cli.main builds, to check its outcomes afterwards.
    batches = []
    run_trials = getattr(cli, "run_trials", None)
    if run_trials is not None:
        def keep(*args, **kwargs):
            batches.append(run_trials(*args, **kwargs))
            return batches[-1]

        cli.run_trials = keep

    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # the command failed, and with it all its operations
        code = failure_name("cli", exc)
    result["solve_s"] = time.perf_counter() - t0
    # cli.main solves the whole grid in one call, so a repetition gives one
    # latency sample: its time per instance.
    result["latencies_us"] = [result["solve_s"] / instances * 1e6]
    if code != 0:
        result["ok_ops"] = 0
        tally.attempted += 2 * instances
        tally.failed += 2 * instances
        tally.failures[f"cli.main: {code}"] += 1
        return
    trials = mc_trial_outcomes(nf, batches[0]) if batches else None
    if trials is None:
        tally.attempted += 2 * instances
        result["absent"].append("per-operation checks (no TrialBatch.records)")
    else:
        for inst, noma, tdma in trials:
            tally.account("noma", inst, noma)
            tally.account("tdma", inst, tdma)
    golden = GOLDEN_MC_SEED1 if job["golden"] else None
    result["ok_ops"] = tally.attempted - tally.failed
    result["digests"], problems = mc_output_problems(out_dir, golden)
    result["problems"] += problems
    result["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())


def rep_cold(nf, job, tally, result, tracer):
    """Independent instances, each solved once by NOMA then TDMA, caches cold."""
    insts = cold_instances(nf, job["seed"], COLD_INSTANCES[job["size"]])
    result["props"]["outside_energy_monotone"] = energy_monotone_share(nf, insts)
    if tracer is not None:
        tracer.install(nf)
    solve_noma, solve_tdma = nf.solve_noma, nf.solve_tdma
    clock = time.perf_counter_ns
    lat = []
    for inst in insts:
        t0 = clock()
        noma = _attempt(solve_noma, inst)
        tdma = _attempt(solve_tdma, inst)
        lat.append(clock() - t0)
        tally.account("noma", inst, noma)
        tally.account("tdma", inst, tdma)
    result["ok_ops"] = tally.attempted - tally.failed
    return lat


def rep_warm(nf, job, tally, result, tracer):
    """Paper-protocol instances, timed after a warm-up pass filled the caches."""
    size = job["size"]
    insts = warm_instances(nf, job["seed"], WARM_INSTANCES[size])
    if tracer is not None:
        tracer.install(nf)
    solve_noma, solve_tdma = nf.solve_noma, nf.solve_tdma
    # The warm-up pass's checked outcomes are the reference for the timed passes.
    reference = []
    for inst in insts:
        noma = _attempt(solve_noma, inst)
        tdma = _attempt(solve_tdma, inst)
        tally.account("noma", inst, noma)
        tally.account("tdma", inst, tdma)
        reference.append((noma, tdma))
    clock = time.perf_counter_ns
    lat = []
    ok_before = tally.attempted - tally.failed
    for _ in range(WARM_PASSES[size]):
        for inst, (ref_noma, ref_tdma) in zip(insts, reference):
            t0 = clock()
            noma = _attempt(solve_noma, inst)
            tdma = _attempt(solve_tdma, inst)
            lat.append(clock() - t0)
            tally.repeat("noma", noma, ref_noma)
            tally.repeat("tdma", tdma, ref_tdma)
    result["ok_ops"] = tally.attempted - tally.failed - ok_before
    return lat


REPS = {"mc-default": rep_mc, "solve-cold": rep_cold, "solve-warm": rep_warm}


def run_rep(nf, job: dict, setup_s: float) -> dict:
    """Run one repetition of job["workload"] and return its measurements."""
    tracer = Tracer() if job["trace"] else None
    cached = getattr(getattr(nf, "fbl", None), "required_sinr", None)
    tally = Tally()
    result = {"setup_s": setup_s, "props": {}, "problems": [], "absent": [], "digests": {}}
    lat_ns = REPS[job["workload"]](nf, job, tally, result, tracer)
    if lat_ns is not None:
        result["latencies_us"] = [t * 1e-3 for t in lat_ns]
        result["solve_s"] = sum(lat_ns) * 1e-9
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = getattr(cached, "cache_info", None)
    if info is None:
        result["absent"].append("required_sinr.cache_info")
    else:
        info = info()
        result["props"]["required_sinr_hit_share"] = info.hits / max(1, info.hits + info.misses)
    result["tally"] = tally.as_dict()
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.metrics() | {"cli.bytes_written": result.get("bytes_written", 0)}
        result["absent"] += [f"traced name {n}" for n in tracer.absent]
        tracer.write_spans(job["spans"], job["header"])
    return result
