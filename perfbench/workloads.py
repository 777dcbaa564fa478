"""The two benchmark workloads: which cold processes make up one
iteration, what each process computes, and how its answers are checked.

The orchestrator (run.py) imports this module only for ``plan`` and the
constants; it never imports hopflab.  Each step function runs inside a cold
child process (child.py) after set-up, and reaches the engine through module
attributes at call time, so that the traced run's wrappers see every call.
"""
import os
import random

# Explicit budgets passed to every engine call that takes a LabConfig, so the
# environment's HOPFLAB_CAP never changes the work.  2048 is the conjecture
# scan's default cap; 8 is the engine's default word cap.
CLOSURE_CAP = 2048
WORD_CAP = 8

# closure_decompose, scan step: admissible labels (lam - mu even) with
# lam + mu <= 4 and lam >= mu, in the conjecture scan's order, without
# (3, 1).  The mirror labels (mu > lam) run the same code on the mirror
# letter b; they and the dim-64 label (3, 1) are left out to keep an
# iteration short.
SCAN_LABELS = ((1, 1), (2, 0), (2, 2), (4, 0))

# closure_decompose, decompose step: the dim-25 closure of label (4, 0)
# splits into five summands of dimension 5 (label (1, 3) gives eight of
# dimension 8 but takes about 17 s on its own).
DECOMPOSE_LABEL = (4, 0)

# suites_archive, suites step: (call, arguments, expected record total)
SUITES = (
    ("verify_identities", ("all",), 44),
    ("relation_annihilation_check", (3,), 60),
    ("verify_action_lemmas", (2, 2, 2, 1), 489),
)

# suites_archive, archive steps: closures archived once per invocation,
# outside timing, and the shipped fixtures, named rather than globbed so
# that a fixture added later does not change the workload
PREPARED_LABELS = ((1, 3), (2, 2))
FIXTURE_MODULES = ("H02", "H11", "H20")
FORMS_PER_PRESENTATION = 500

WORKLOADS = ("closure_decompose", "suites_archive")

# Seconds one untraced iteration took on the seed code (2-CPU Xeon VM,
# Python 3.11, Fraction backend).  A run of S seconds makes
# ceil(S / nominal) iterations, whatever the code under test does, so that
# two commits are compared on the same number of samples.
NOMINAL_ITERATION_S = {
    "closure_decompose": 6.3,
    "suites_archive": 8.4,
}


def predicted_dim(lam, mu):
    return ((lam + 1) * (mu + 1)) ** 2


def label_name(lam, mu):
    return "c%d%d" % (lam, mu)


def plan(workload, root, workdir):
    """Steps of one iteration, each run in its own cold process, as
    (step, argument, operation count) triples."""
    if workload == "closure_decompose":
        return [("scan", None, len(SCAN_LABELS) + 1), ("decompose", None, 6)]
    if workload == "suites_archive":
        fixtures = os.path.join(root, "tests", "fixtures")
        paths = [os.path.join(fixtures, name.lower() + ".hopflab")
                 for name in FIXTURE_MODULES]
        paths += [os.path.join(workdir, label_name(*lm) + ".hopflab")
                  for lm in PREPARED_LABELS]
        return ([("suites", None, len(SUITES))]
                + [("roundtrip", p, 1) for p in paths]
                + [("forms", None, 4 * FORMS_PER_PRESENTATION)])
    raise KeyError(workload)


def prepare_plan(workload):
    """Untimed preparation step run once per invocation, or None."""
    if workload == "suites_archive":
        return ("prepare", None, len(FIXTURE_MODULES) + len(PREPARED_LABELS))
    return None


class Context:
    """Per-process operation log: every engine call whose answer is checked
    is one operation; an exception or a wrong answer fails it."""

    def __init__(self, seed, workdir):
        from hopflab.bimodlab import core
        self.seed = seed
        self.workdir = workdir
        self.cfg = core.LabConfig(closure_cap=CLOSURE_CAP, word_cap=WORD_CAP)
        self.attempted = 0
        self.failures = []
        self.timings = {}

    def op(self, name, fn):
        """Run fn() -> (ok, detail); record the outcome and return ok."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a failed operation must not end the run
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (name, detail))
        return ok


def _h11(ctx):
    from hopflab.bimodlab import core
    return core.closure([core.standard_seed("H11")], side="bi",
                        config=ctx.cfg, name="H11")


def _label_closure(ctx, lam, mu, name=None):
    from hopflab.bimodlab import core, vectors
    return core.closure([vectors.h_lambda_mu_seed(lam, mu)], side="bi",
                        config=ctx.cfg, name=name or "conj(%d,%d)" % (lam, mu))


def _dim_check(mod, want):
    return mod.dim == want, "dim %d, expected %d" % (mod.dim, want)


# -- steps: prepare(ctx, arg) builds untimed inputs, run(ctx, arg, inputs)
#    is the timed work --

def run_scan(ctx, arg, inputs):
    mods = {}
    for lam, mu in SCAN_LABELS:
        def closure_op(lam=lam, mu=mu):
            mods[(lam, mu)] = mod = _label_closure(ctx, lam, mu)
            return _dim_check(mod, predicted_dim(lam, mu))
        ctx.op("closure(%d,%d)" % (lam, mu), closure_op)

    def same_as_h11():
        mod, ref = mods[(1, 1)], _h11(ctx)
        same = (mod.dim == ref.dim
                and all(ref.ech.contains(b) for b in mod.basis)
                and all(mod.ech.contains(b) for b in ref.basis))
        return same, "closure of K^-1 %s the closure of E K^-1" % (
            "equals" if same else "differs from")
    ctx.op("closure(1,1) == H11", same_as_h11)


def _summand_check(summands, n, dim):
    dims = [s.dim for s in summands]
    return (dims == [dim] * (n // dim) and sum(dims) == n,
            "summand dims %s of %d" % (dims, n))


def run_decompose(ctx, arg, inputs):
    from hopflab.bimodlab import core
    box = {}

    def h11_op():
        box["h11"] = mod = _h11(ctx)
        return _dim_check(mod, 16)
    ctx.op("closure H11", h11_op)
    ctx.op("decompose_left(H11)", lambda: _summand_check(
        core.decompose_left(box["h11"], ctx.cfg), 16, 4))

    def casimir_op():
        spec = core.casimir_spectrum(box["h11"])
        want = [(core.casimir_eigenvalue(2), 12),
                (core.casimir_eigenvalue(0), 4)]
        return spec == want, "multiplicities %s" % [m for _, m in spec]
    ctx.op("casimir_spectrum(H11)", casimir_op)

    def simple_op():
        res = core.is_simple(box["h11"], ctx.cfg)
        return res is True, "is_simple returned %r" % (res,)
    ctx.op("is_simple(H11)", simple_op)

    lam, mu = DECOMPOSE_LABEL
    side = (lam + 1) * (mu + 1)

    def label_op():
        box["label"] = mod = _label_closure(ctx, lam, mu)
        return _dim_check(mod, predicted_dim(lam, mu))
    ctx.op("closure(%d,%d)" % DECOMPOSE_LABEL, label_op)
    ctx.op("decompose_left(%d,%d)" % DECOMPOSE_LABEL, lambda: _summand_check(
        core.decompose_left(box["label"], ctx.cfg), side * side, side))


def run_suites(ctx, arg, inputs):
    from hopflab.bimodlab import suites
    for fname, args, total in SUITES:
        def suite_op(fname=fname, args=args, total=total):
            rep = getattr(suites, fname)(*args)
            return (rep.passed and rep.total == total,
                    "%d checks, %d failed, expected %d"
                    % (rep.total, len(rep.failures), total))
        ctx.op("%s%r" % (fname, args), suite_op)


def run_prepare(ctx, arg, inputs):
    """Archive the prepared closures into the work directory, and check
    that today's engine renders the reference closures to the shipped
    fixture bytes (so the fixtures are the originals of what loads)."""
    from hopflab import store
    from hopflab.bimodlab import core
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in FIXTURE_MODULES:
        def fixture_op(name=name):
            mod = core.closure([core.standard_seed(name)], side="bi",
                               config=ctx.cfg, name=name)
            fresh = os.path.join(ctx.workdir, name + ".fresh")
            store.save_module(mod, fresh)
            shipped = os.path.join(root, "tests", "fixtures",
                                   name.lower() + ".hopflab")
            same = _read(fresh) == _read(shipped)
            return same, "fresh archive %s the shipped fixture" % (
                "matches" if same else "differs from")
        ctx.op("fixture %s" % name, fixture_op)
    for lam, mu in PREPARED_LABELS:
        def archive_op(lam=lam, mu=mu):
            mod = _label_closure(ctx, lam, mu, name=label_name(lam, mu))
            store.save_module(mod, os.path.join(
                ctx.workdir, label_name(lam, mu) + ".hopflab"))
            return _dim_check(mod, predicted_dim(lam, mu))
        ctx.op("archive %s" % label_name(lam, mu), archive_op)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_roundtrip(ctx, arg, inputs):
    """Cold load (checksum, reparse, revalidation), save again, compare the
    bytes; load and save are timed apart."""
    import time
    from hopflab import store
    base = os.path.basename(arg)
    out = os.path.join(ctx.workdir, base + ".%d.resaved" % os.getpid())

    def roundtrip_op():
        t0 = time.perf_counter()
        mod = store.load_module(arg)
        t1 = time.perf_counter()
        store.save_module(mod, out)
        t2 = time.perf_counter()
        ctx.timings["load_s"] = t1 - t0
        ctx.timings["save_s"] = t2 - t1
        same = _read(out) == _read(arg)
        os.remove(out)
        return same, "%s: dim %d, re-saved bytes %s" % (
            mod.name, mod.dim, "identical" if same else "differ")
    ctx.op("roundtrip %s" % base, roundtrip_op)


def _random_scalar(rng):
    from hopflab.scalars import QRat, qint
    x = QRat.from_int(rng.randint(1, 9))
    if rng.random() < 0.5:
        x = x * QRat.q_power(rng.randint(-4, 4))
    if rng.random() < 0.3:
        x = x / QRat.from_int(rng.randint(2, 7))
    if rng.random() < 0.3:
        x = x * (QRat.q_power(1) - QRat.q_power(-1)).inverse()
    if rng.random() < 0.25:
        x = x * qint(rng.randint(2, 4))
    return -x if rng.random() < 0.5 else x


def prepare_forms(ctx, arg):
    """Seeded random normal-form polynomials in every presentation."""
    from hopflab import cli, ncpoly
    forms = []
    for algebra in sorted(cli.PRESENTATIONS):
        pres = cli.PRESENTATIONS[algebra]
        rng = random.Random("%d:%s" % (ctx.seed, algebra))
        for _ in range(FORMS_PER_PRESENTATION):
            poly = {}
            for _ in range(rng.randint(1, 4)):
                w = ncpoly.random_normal_word(pres, rng, max_len=5)
                c = _random_scalar(rng)
                s = poly.get(w)
                poly[w] = c if s is None else s + c
                if poly[w].is_zero():
                    del poly[w]
            forms.append((algebra, poly))
    return forms


def run_forms(ctx, arg, forms):
    from hopflab import cli
    for i, (algebra, poly) in enumerate(forms):
        def form_op(algebra=algebra, poly=poly):
            text = cli.format_poly(poly)
            return cli.parse_expr(text, algebra) == poly, text
        ctx.op("parse(format) %s #%d" % (algebra, i), form_op)


def run_nothing(ctx, arg, inputs):
    """A process that only sets up, to sample set-up time."""


STEPS = {
    "setup": (None, run_nothing),
    "scan": (None, run_scan),
    "decompose": (None, run_decompose),
    "suites": (None, run_suites),
    "prepare": (None, run_prepare),
    "roundtrip": (None, run_roundtrip),
    "forms": (prepare_forms, run_forms),
}
