"""Per-layer tracing by wrapping the package's layer functions.

Inside ``with Tracer():`` each layer function is replaced at the
attribute where its callers look it up (a module global such as
``plurigenera.verifier.is_admissible``, or a class attribute such as
``QuasiLinearForm.eventually_at_least``); leaving the block puts every
original back.  Spans are aggregated in memory per (layer, parent
layer) rather than kept one record per call: a certified sweep makes
about 1.5 million layer calls.

A layer's self time is its span time minus the time of its child spans.
Generators are timed inside each ``next``, so a consumer's own work
between items is not charged to the generator.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import plurigenera.cases as cases
import plurigenera.fibre_local as fibre_local
import plurigenera.verifier as verifier
from plurigenera.congruence import QuasiLinearForm
from plurigenera.model import FibrationNumericalType, FibreDatum

VIOLATIONS = (
    "chi-negative",
    "tame-torsion-order",
    "tame-coefficient",
    "wild-char-zero",
    "wild-power-relation",
    "wild-torsion-length",
    "coefficient-divisibility",
    "wild-coefficient",
    "slope-nonpositive",
    "quasi-elliptic-char",
    "quasi-elliptic-chi0-base-P1",
    "condition-U",
)

# (owner, attribute, layer) for every wrapped function; generators are
# listed separately because their spans are taken per item.
FUNCTIONS = (
    (verifier, "is_admissible", "verifier.is_admissible"),
    (verifier, "check_all_U", "congruence.check_all_U"),
    (verifier, "slope", "model.slope"),
    (verifier, "plurigenus", "model.plurigenus"),
    (verifier, "admissible_coefficients", "fibre_local.admissible_coefficients"),
    (verifier, "exact_form", "cases.exact_form"),
    (cases, "exact_form", "cases.exact_form"),
    (verifier, "replay_type", "cases.replay_type"),
    (cases, "form_dominates", "cases.form_dominates"),
    (verifier, "_statement_stats", "verifier.statements"),
    (verifier, "verify_main_theorem", "verifier.statements"),
    (verifier, "verify_tail", "verifier.statements"),
    (verifier, "_sweep_cell", "verifier.cell"),
    (verifier, "_cell_types_material", "verifier.cell"),
    (verifier, "_materialize_certified", "verifier.certified"),
    (QuasiLinearForm, "eventually_at_least", "congruence.eventually_at_least"),
    (FibreDatum, "__post_init__", "model.construct"),
    (FibrationNumericalType, "__post_init__", "model.construct"),
)
GENERATORS = (
    (verifier, "_covered_companions", "verifier.walk"),
    (verifier, "_multisets_upto", "verifier.multisets"),
    (verifier, "_wild_combos", "verifier.wild_combos"),
)

# every per-layer metric, in the order they are printed: (name, unit)
PER_LAYER = (
    [
        ("verifier.is_admissible.calls", "count"),
        ("verifier.is_admissible.self_s", "s"),
        ("verifier.is_admissible.accept_ratio", "ratio"),
    ]
    + [(f"verifier.is_admissible.reject.{v}", "count") for v in VIOLATIONS]
    + [
        ("verifier.is_admissible.reject.other", "count"),
        ("congruence.check_all_U.calls", "count"),
        ("congruence.check_all_U.self_s", "s"),
        ("congruence.check_all_U.pass_ratio", "ratio"),
        ("congruence.eventually_at_least.calls", "count"),
        ("congruence.eventually_at_least.self_s", "s"),
        ("congruence.form_value.calls", "count"),
        ("model.slope.calls", "count"),
        ("model.slope.self_s", "s"),
        ("model.construct.calls", "count"),
        ("model.construct.self_s", "s"),
        ("model.plurigenus.calls", "count"),
        ("model.plurigenus.self_s", "s"),
        ("fibre_local.admissible_coefficients.calls", "count"),
        ("fibre_local.admissible_coefficients.self_s", "s"),
        ("fibre_local.achievable_torsion_lengths.hit_ratio", "ratio"),
        ("verifier.walk.candidates", "count"),
        ("verifier.walk.self_s", "s"),
        ("verifier.walk.keep_ratio", "ratio"),
        ("verifier.multisets.candidates", "count"),
        ("verifier.multisets.self_s", "s"),
        ("verifier.wild_combos.candidates", "count"),
        ("verifier.wild_combos.self_s", "s"),
        ("verifier.certified.self_s", "s"),
        ("verifier.certified.keep_ratio", "ratio"),
        ("verifier.cell.count", "count"),
        ("verifier.cell.p50_s", "s"),
        ("verifier.cell.max_s", "s"),
        ("verifier.cell.materialized", "count"),
        ("verifier.cell.self_s", "s"),
        ("verifier.statements.calls", "count"),
        ("verifier.statements.self_s", "s"),
        ("cases.replay_type.calls", "count"),
        ("cases.replay_type.self_s", "s"),
        ("cases.replay_type.failures", "count"),
        ("cases.form_dominates.self_s", "s"),
        ("cases.exact_form.calls", "count"),
        ("cases.exact_form.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the layer functions while installed and aggregates spans."""

    def __init__(self):
        # frames are [layer, child seconds]; the root frame is never popped
        self._stack = [["root", 0.0]]
        # (layer, parent layer) -> [calls, total seconds, child seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.cell_seconds: list[float] = []
        self._source: str | None = None  # generator that yielded last
        self._saved: list[tuple[object, str, object]] = []
        self._torsion_cache_before = None

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, layer: str) -> tuple[list, list, float]:
        parent = self._stack[-1]
        frame = [layer, 0.0]
        self._stack.append(frame)
        return parent, frame, time.perf_counter()

    def _exit(self, parent: list, frame: list, start: float) -> float:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        parent[1] += elapsed
        key = (frame[0], parent[0])
        rec = self.spans.get(key)
        if rec is None:
            self.spans[key] = [1, elapsed, frame[1]]
        else:
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += frame[1]
        return elapsed

    def _observe_admissible(self, parent: str, result, _elapsed: float) -> None:
        counts = self.counts
        if result.admissible:
            counts["admissible.accepted"] += 1
            counts[f"admissible.accepted.parent.{parent}"] += 1
            counts[f"admissible.accepted.source.{self._source}"] += 1
        else:
            for v in set(result.violations):
                counts[f"reject.{v if v in VIOLATIONS else 'other'}"] += 1

    def _observe_check_all_u(self, _parent: str, result, _elapsed: float) -> None:
        self.counts["check_all_U.passed"] += bool(result)

    def _observe_replay(self, _parent: str, result, _elapsed: float) -> None:
        self.counts["replay.failures"] += not result.ok

    def _observe_cell(self, parent: str, result, elapsed: float) -> None:
        # a material sweep's cell span contains the enumeration's cell span;
        # only the outermost one is a cell
        if parent == "verifier.cell":
            return
        self.cell_seconds.append(elapsed)
        self.counts["cell.materialized"] += (
            result["materialized"] if isinstance(result, dict) else len(result)
        )

    def _wrap(self, layer: str, fn):
        enter, exit_ = self._enter, self._exit
        observe = {
            "verifier.is_admissible": self._observe_admissible,
            "congruence.check_all_U": self._observe_check_all_u,
            "cases.replay_type": self._observe_replay,
            "verifier.cell": self._observe_cell,
        }.get(layer)
        starts_cell = layer == "verifier.cell"

        def wrapper(*args, **kwargs):
            if starts_cell:
                self._source = None
            parent, frame, start = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = exit_(parent, frame, start)
            if observe is not None:
                observe(parent[0], result, elapsed)
            return result

        return wrapper

    def _wrap_generator(self, layer: str, fn):
        enter, exit_, counts = self._enter, self._exit, self.counts

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                parent, frame, start = enter(layer)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    exit_(parent, frame, start)
                counts[f"{layer}.candidates"] += 1
                self._source = layer
                yield item

        return wrapper

    def _wrap_form_value(self, fn):
        counts, stack = self.counts, self._stack

        def value(form, n):
            if stack[-1][0] == "congruence.eventually_at_least":
                counts["form_value.calls"] += 1
            return fn(form, n)

        return value

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, layer in FUNCTIONS:
                self._patch(owner, attr, self._wrap(layer, owner.__dict__[attr]))
            for owner, attr, layer in GENERATORS:
                self._patch(owner, attr, self._wrap_generator(layer, owner.__dict__[attr]))
            self._patch(
                QuasiLinearForm,
                "value",
                self._wrap_form_value(QuasiLinearForm.__dict__["value"]),
            )
        except BaseException:
            self._restore()
            raise
        self._torsion_cache_before = fibre_local.achievable_torsion_lengths.cache_info()
        return self

    def __exit__(self, *exc) -> None:
        after = fibre_local.achievable_torsion_lengths.cache_info()
        before = self._torsion_cache_before
        self.counts["torsion.hits"] = after.hits - before.hits
        self.counts["torsion.misses"] = after.misses - before.misses
        self._restore()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds), summed over parent layers."""
        out: dict[str, tuple[int, float]] = {}
        for (layer, _parent), (calls, total, child) in self.spans.items():
            c, s = out.get(layer, (0, 0.0))
            out[layer] = (c + calls, s + total - child)
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but ``trace.overhead_ratio``, which needs
        an untraced run; layers a workload never reaches report zero."""
        totals = self.layer_totals()
        counts = self.counts

        def calls(layer):
            return totals.get(layer, (0, 0.0))[0]

        def self_s(layer):
            return totals.get(layer, (0, 0.0))[1]

        admissible_calls = calls("verifier.is_admissible")
        certified_tested = self.spans.get(
            ("verifier.is_admissible", "verifier.certified"), [0]
        )[0]
        cells = self.cell_seconds
        out = {
            "verifier.is_admissible.calls": admissible_calls,
            "verifier.is_admissible.self_s": self_s("verifier.is_admissible"),
            "verifier.is_admissible.accept_ratio": _ratio(
                counts["admissible.accepted"], admissible_calls
            ),
        }
        for v in VIOLATIONS + ("other",):
            out[f"verifier.is_admissible.reject.{v}"] = counts[f"reject.{v}"]
        out.update(
            {
                "congruence.check_all_U.calls": calls("congruence.check_all_U"),
                "congruence.check_all_U.self_s": self_s("congruence.check_all_U"),
                "congruence.check_all_U.pass_ratio": _ratio(
                    counts["check_all_U.passed"], calls("congruence.check_all_U")
                ),
                "congruence.eventually_at_least.calls": calls(
                    "congruence.eventually_at_least"
                ),
                "congruence.eventually_at_least.self_s": self_s(
                    "congruence.eventually_at_least"
                ),
                "congruence.form_value.calls": counts["form_value.calls"],
                "model.slope.calls": calls("model.slope"),
                "model.slope.self_s": self_s("model.slope"),
                "model.construct.calls": calls("model.construct"),
                "model.construct.self_s": self_s("model.construct"),
                "model.plurigenus.calls": calls("model.plurigenus"),
                "model.plurigenus.self_s": self_s("model.plurigenus"),
                "fibre_local.admissible_coefficients.calls": calls(
                    "fibre_local.admissible_coefficients"
                ),
                "fibre_local.admissible_coefficients.self_s": self_s(
                    "fibre_local.admissible_coefficients"
                ),
                "fibre_local.achievable_torsion_lengths.hit_ratio": _ratio(
                    counts["torsion.hits"],
                    counts["torsion.hits"] + counts["torsion.misses"],
                ),
                "verifier.walk.candidates": counts["verifier.walk.candidates"],
                "verifier.walk.self_s": self_s("verifier.walk"),
                "verifier.walk.keep_ratio": _ratio(
                    counts["admissible.accepted.source.verifier.walk"],
                    counts["verifier.walk.candidates"],
                ),
                "verifier.multisets.candidates": counts["verifier.multisets.candidates"],
                "verifier.multisets.self_s": self_s("verifier.multisets"),
                "verifier.wild_combos.candidates": counts[
                    "verifier.wild_combos.candidates"
                ],
                "verifier.wild_combos.self_s": self_s("verifier.wild_combos"),
                "verifier.certified.self_s": self_s("verifier.certified"),
                "verifier.certified.keep_ratio": _ratio(
                    counts["admissible.accepted.parent.verifier.certified"],
                    certified_tested,
                ),
                "verifier.cell.count": len(cells),
                "verifier.cell.p50_s": statistics.median(cells) if cells else 0.0,
                "verifier.cell.max_s": max(cells, default=0.0),
                "verifier.cell.materialized": counts["cell.materialized"],
                "verifier.cell.self_s": self_s("verifier.cell"),
                "verifier.statements.calls": calls("verifier.statements"),
                "verifier.statements.self_s": self_s("verifier.statements"),
                "cases.replay_type.calls": calls("cases.replay_type"),
                "cases.replay_type.self_s": self_s("cases.replay_type"),
                "cases.replay_type.failures": counts["replay.failures"],
                "cases.form_dominates.self_s": self_s("cases.form_dominates"),
                "cases.exact_form.calls": calls("cases.exact_form"),
                "cases.exact_form.self_s": self_s("cases.exact_form"),
            }
        )
        return out

    def span_rows(self) -> list[dict]:
        """One row per (layer, parent layer), slowest self time first."""
        rows = [
            {
                "layer": layer,
                "parent": parent,
                "calls": calls,
                "total_s": total,
                "self_s": total - child,
            }
            for (layer, parent), (calls, total, child) in self.spans.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])
