"""The workload process: imports bspec once, drives one workload's corpus to
verdicts and prints one JSON object on its last line of output.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 bench/worker.py \
        --workload direct-limits --seed 1 --seconds 20 --mode timed|trace

`bench/run.py` starts it; run it by hand only to look at one workload.

A verdict is what `bspec check FILE --json PATH` computes: dsl.parse, then
runner.run_suite (which elaborates the document), then report.emit_report
in JSON.  Every report is checked against the corpus's answer key.

timed mode: one checked round, then whole rounds over the corpus until the
time is up, each document timed on its own against the calibration runs
around it (bench/calibrate.py); a document's time is the median over the
rounds.  Then the calls made to reach every verdict once are counted twice
with cProfile and must agree.

trace mode: rounds alternate between plain and traced (bench/spans.py);
per-layer times are medians over the traced rounds, counts come from the
last one, and the spans of the last traced round are written out.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from calibrate import CAL_S, calibrate  # noqa: E402

t0 = time.perf_counter()
from bspec import dsl, report, runner  # noqa: E402

IMPORT_S = time.perf_counter() - t0
IMPORT_CAL = calibrate(5)

CONFIG = runner.RunConfig()  # the CLI defaults, uniq_bound == corpus.UNIQ_BOUND


def verdict(text):
    doc = dsl.parse(text)
    rep = runner.run_suite(doc, None, CONFIG)
    return report.emit_report(rep, "json")


def safe_verdict(text):
    """The JSON report, or the rejection a `bspec check` run exits 2 with."""
    try:
        return verdict(text)
    except (dsl.DslError, runner.ConfigError) as exc:
        return f"rejected: {type(exc).__name__}: {exc}"


class Checker:
    """Compares every verdict with the answer key and with the first verdict
    of the same document in this process."""

    def __init__(self):
        self.first = {}
        self.failed_docs = set()
        self.wrong = []  # mismatches other than the kept fault

    def check(self, doc, out):
        if doc.name in self.first:
            if out != self.first[doc.name]:
                self.wrong.append(f"{doc.name}: verdict changed between rounds")
            return
        self.first[doc.name] = out
        if out.startswith("rejected"):
            problems = [out]
        else:
            problems = corpus.check_report(doc, json.loads(out))
        if not problems:
            return
        self.failed_docs.add(doc.name)
        if doc.kept_fault and self._is_kept_fault(out):
            print(f"{doc.name}: fails as known: {problems[0]}", file=sys.stderr)
            return
        for p in problems:
            self.wrong.append(f"{doc.name}: {p}")

    @staticmethod
    def _is_kept_fault(out):
        """The known fault: the product check errors instead of answering."""
        if out.startswith("rejected"):
            return False
        checks = json.loads(out)["checks"]
        return [(c["law"], c["status"]) for c in checks] == [("product.run", "fail")] \
            and checks[0]["witness"][0].startswith("error")


def run_round(docs, checker, times=None, wrap=None):
    """One verdict per document.  With `times`, each document's time is
    appended to times[name] as a ratio to the calibration runs just before
    and just after it (see bench/calibrate.py).  Returns the summed verdict
    time in seconds."""
    gc.collect()
    total = 0.0
    before = calibrate() if times is not None else None
    for doc in docs:
        start = time.perf_counter()
        out = safe_verdict(doc.text) if wrap is None else wrap(safe_verdict, doc.text)
        elapsed = time.perf_counter() - start
        total += elapsed
        checker.check(doc, out)
        if times is not None:
            after = calibrate()
            times[doc.name].append(elapsed / ((before + after) / 2))
            before = after
    return total


def count_calls(docs, checker):
    """Python and built-in calls made by one round of verdicts."""
    prof = cProfile.Profile()
    for doc in docs:
        prof.enable()
        out = safe_verdict(doc.text)
        prof.disable()
        checker.check(doc, out)
    return pstats.Stats(prof).total_calls


def timed(docs, seconds, checker):
    run_round(docs, checker)  # checked and warm
    rounds = 1
    ratios = {d.name: [] for d in docs}
    deadline = time.perf_counter() + seconds
    while True:
        run_round(docs, checker, ratios)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    verdict_s = [statistics.median(ratios[d.name]) * CAL_S for d in docs]
    calls = [count_calls(docs, checker), count_calls(docs, checker)]
    rounds += 2
    if calls[0] != calls[1]:
        checker.wrong.append(f"call count differs between two passes: {calls}")
    metrics = {
        "import_s": IMPORT_S / IMPORT_CAL * CAL_S,
        "docs_per_s": len(docs) / sum(verdict_s),
        "verdict_s.p50": statistics.median(verdict_s),
        "calls": calls[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "timed_rounds": rounds - 3,
    }
    return rounds, metrics


def traced(docs, seconds, checker, spans_path):
    from spans import Tracer

    tracer = Tracer()
    run_round(docs, checker)
    rounds = 1
    plain, traced_rounds = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_round(docs, checker))
        tracer.reset()
        tracer.install()
        try:
            run_round(docs, checker, wrap=tracer.root)
        finally:
            tracer.uninstall()
        agg = tracer.aggregate()
        if abs(agg["self_sum"] - agg["root"]) > 1e-9 * max(agg["root"], 1.0) + 1e-9:
            checker.wrong.append("per-span self times do not add up to the verdict time")
        traced_rounds.append((agg, dict(tracer.counters)))
        rounds += 2
        if time.perf_counter() >= deadline:
            break
    tracer.write(spans_path)
    return rounds, layer_metrics(tracer, docs, plain, traced_rounds)


def layer_metrics(tracer, docs, plain, traced_rounds):
    def med(fn):
        return statistics.median(fn(agg) for agg, _ in traced_rounds)

    def incl(name):
        return med(lambda agg: agg["inclusive"].get(name, 0.0))

    agg, counts = traced_rounds[-1]
    out = {}
    for layer in ("dsl", "runner", "report", "setoid", "order", "families",
                  "topology", "spectra", "limits", "duality", "bench"):
        out[f"{layer}.self_s"] = med(lambda a, m=layer: a["self"].get(m, 0.0))
    out["dsl.parse_s"] = incl("dsl.parse")
    out["dsl.elaborate_s"] = incl("dsl.elaborate")
    for fn_name, kind in sorted(tracer.check_kinds.items(), key=lambda kv: kv[1]):
        out[f"runner.check.{kind}_s"] = incl(fn_name)
    for name in ("limits.direct_limit", "limits.inverse_limit",
                 "limits.product_limit_bijection", "limits.product_inverse_morphism",
                 "limits.cocone_mediator", "limits.cone_mediator",
                 "limits.cofinal_direct_iso", "limits.cofinal_inverse_iso",
                 "setoid.quotient_by", "order.top_element", "spectra.enumerate_threads",
                 "families.enumerate_compatible", "topology.find_certificate",
                 "topology.validate_certificate", "topology.check_morphism",
                 "duality.enumerate_morphisms", "duality.duality_direct_to_inverse",
                 "duality.duality_inverse_hom", "duality.converse_dual_inverse",
                 "duality.converse_dual_direct"):
        out[f"{name}_s"] = incl(name)
    out["limits.uniqueness_s"] = (incl("limits._check_unique_mediator")
                                  + incl("limits._check_unique_cone_mediator"))
    out["report.emit_json_s"] = incl("report.emit_report")
    spectra = sum(d.text.count("\nspectrum ") + d.text.startswith("spectrum ")
                  for d in docs)
    for key in ("limits.direct_limit.calls", "limits.inverse_limit.calls",
                "families.direct_sum_equality.calls", "order.top_element.calls",
                "limits.InverseLimit.token_of.calls", "duality.MorCarrier.find.calls",
                "topology.find_certificate.calls", "topology.find_certificate.found",
                "setoid.quotient_by.pairs", "spectra.threads",
                "families.enumerate_compatible.choices",
                "duality.enumerate_morphisms.candidates",
                "duality.enumerate_morphisms.accepted"):
        out[key] = counts.get(key, 0)
    out["limits.direct_limit.per_spectrum"] = out["limits.direct_limit.calls"] / spectra
    out["limits.inverse_limit.per_spectrum"] = out["limits.inverse_limit.calls"] / spectra
    found, tried = out["topology.find_certificate.found"], out["topology.find_certificate.calls"]
    out["topology.find_certificate.found_ratio"] = found / tried if tried else 0.0
    acc = out["duality.enumerate_morphisms.accepted"]
    cand = out["duality.enumerate_morphisms.candidates"]
    out["duality.enumerate_morphisms.accepted_ratio"] = acc / cand if cand else 0.0
    out["trace.verdict_s"] = med(lambda a: a["root"])
    out["trace.untraced_s"] = statistics.median(plain)
    out["trace.overhead_s"] = out["trace.verdict_s"] - out["trace.untraced_s"]
    out["trace.spans"] = agg["spans"]
    out["trace.rounds"] = len(traced_rounds)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "trace"), required=True)
    ap.add_argument("--spans", default=os.path.join(".bench_out", "spans"))
    args = ap.parse_args(argv)
    docs = corpus.make_corpus(args.workload, args.seed)
    checker = Checker()
    if args.mode == "timed":
        rounds, metrics = timed(docs, args.seconds, checker)
    else:
        rounds, metrics = traced(docs, args.seconds, checker,
                                 f"{args.spans}-{args.workload}")
    for w in checker.wrong:
        print(f"wrong: {w}", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.wrong,
        "attempted": len(docs) * rounds,
        "failed": len(checker.failed_docs) * rounds,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
