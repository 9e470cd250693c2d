"""Sampling plans: phased (feature change-point) or systematic.

A :class:`SamplingPlan` names ``k`` detailed *intervals* of one
program's dynamic instruction stream.  Each interval is simulated in
detail from the functional checkpoint at its ``boundary``: ``warmup``
instructions re-warm microarchitectural state, then ``measure``
instructions are measured; the measured window's rates stand for
``weight`` instructions of the whole run
(:mod:`repro.sampling.estimate`).

Two plan shapes share that structure:

* **Phased** (``auto``, the default): the functional pass summarises
  every ``g``-instruction micro-interval by cheap data-driven features
  (probe-cache miss rate, taken rate, memory fraction — see
  :func:`repro.sampling.checkpoint.feature_pass`), change-points in the
  feature stream segment the run into phases, and detailed coverage is
  *scaled to the run length*: short runs measure every phase
  contiguously (one boot per phase — near-exact), long runs spread a
  fixed detail budget of windows across the phases in proportion to
  their length.  SimPoint-style pc-profile clustering is useless for
  this repo's kernels — they are single loop nests whose pc mix barely
  changes while their data locality (and hence CPI) swings — so phases
  are cut on functional *data* behaviour instead.
* **Systematic** (``k=8,...`` — the SMARTS shape): ``k`` equal strides,
  one window at each stride start, stride length as the weight.

Plans are **seed-free and reproducible**: everything derives from the
program's dynamic execution and the spec string, never from a random
source, so the same spec over the same program always produces the same
plan — which is what lets the checkpoint store be shared across sweeps,
pool workers and serve sessions.

Spec grammar (the ``RunSpec.sampling`` / ``--sample`` string):

* ``auto`` — phased with default granularity/windows;
* ``g=250,w=250,m=350`` — phased with explicit micro-interval
  granularity ``g``, per-window warmup ``w`` and/or window length ``m``;
* ``k=8,w=150,m=250`` — systematic with interval count ``k``, warmup
  ``w`` and measured window ``m`` (missing parts take defaults).

Interval jobs (internal) use the fully concrete token
``i=3,b=5250,w=150,m=250,n=23699`` — self-describing, so a pool worker
can execute its interval without re-deriving the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: phased-plan constants, validated against exact simulation on the
#: registry suite (see DESIGN §13 for the calibration evidence):
#: micro-interval granularity of the feature pass,
GRANULARITY = 250
#: feature-distance change-point threshold (phase boundary),
THETA = 0.2
#: run lengths below N_DENSE take full coverage, above N_SPARSE the
#: sparse coverage floor, linear taper between,
N_DENSE = 8000
N_SPARSE = 15000
C_SPARSE = 0.10
#: dense mode: detailed warmup before each contiguously-measured phase
#: (long, because one warmup amortises over a whole phase),
W_DENSE = 800
#: phases shorter than this merge into a neighbour before planning,
MERGE_DENSE = 1000
#: sparse mode: per-window warmup / measured length and the minimum
#: window count,
W_WIN = 250
M_WIN = 350
K_MIN = 3

#: systematic defaults
WARMUP = 150
SYSTEMATIC_MEASURE = 250


class SamplingError(ValueError):
    """A sampling spec or plan that cannot be honoured."""


@dataclass(frozen=True)
class SamplingSpec:
    """Parsed user-facing sampling spec (unset fields take defaults).

    ``k`` set selects the systematic shape; otherwise phased.
    """

    k: Optional[int] = None
    w: Optional[int] = None
    m: Optional[int] = None
    g: Optional[int] = None

    @property
    def phased(self) -> bool:
        return self.k is None

    @classmethod
    def parse(cls, text: str) -> "SamplingSpec":
        text = (text or "").strip()
        if not text or text == "auto":
            return cls()
        fields = _parse_fields(text)
        if "i" in fields:
            raise SamplingError(
                f"{text!r} is an internal interval token, not a "
                f"sampling spec ('auto' or k=/w=/m=/g=)")
        unknown = set(fields) - {"k", "w", "m", "g"}
        if unknown:
            raise SamplingError(
                f"unknown sampling spec field(s) {sorted(unknown)} in "
                f"{text!r} (expected 'auto' or a subset of k=,w=,m=,g=)")
        for name, floor in (("k", 1), ("w", 0), ("m", 1), ("g", 16)):
            v = fields.get(name)
            if v is not None and v < floor:
                raise SamplingError(
                    f"sampling spec needs {name} >= {floor}, got {v}")
        if fields.get("k") is not None and fields.get("g") is not None:
            raise SamplingError("sampling spec cannot set both k= "
                                "(systematic) and g= (phased)")
        return cls(k=fields.get("k"), w=fields.get("w"),
                   m=fields.get("m"), g=fields.get("g"))


def _parse_fields(text: str) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise SamplingError(f"malformed sampling spec part {part!r} "
                                f"(expected name=value)")
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise SamplingError(f"sampling spec {name.strip()!r} must be "
                                f"an integer, got {value!r}") from None
    return out


@dataclass(frozen=True)
class Interval:
    """One detailed interval of a plan."""

    index: int
    #: checkpoint boundary the core boots from
    boundary: int
    #: detailed instructions executed before measurement begins
    warmup: int
    #: measured-window length (instructions)
    measure: int
    #: whole-run instructions this window stands for
    weight: int

    def token(self, total: int) -> str:
        """The self-describing interval-job spec string."""
        return (f"i={self.index},b={self.boundary},w={self.warmup},"
                f"m={self.measure},n={total}")


@dataclass(frozen=True)
class SamplingPlan:
    """One concrete plan: ``k`` detailed intervals of a ``total``-long run."""

    total: int
    intervals: Tuple[Interval, ...]

    @property
    def k(self) -> int:
        return len(self.intervals)

    @property
    def boundaries(self) -> Tuple[int, ...]:
        return tuple(iv.boundary for iv in self.intervals)

    @property
    def weights(self) -> Tuple[int, ...]:
        return tuple(iv.weight for iv in self.intervals)

    @property
    def detailed_instructions(self) -> int:
        """Upper bound on instructions simulated in detail."""
        return sum(iv.warmup + iv.measure for iv in self.intervals)

    def token(self, index: int) -> str:
        if not 0 <= index < self.k:
            raise SamplingError(f"interval index {index} out of range "
                                f"for a {self.k}-interval plan")
        return self.intervals[index].token(self.total)

    # -- construction ---------------------------------------------------
    @classmethod
    def systematic(cls, total: int, spec: SamplingSpec) -> "SamplingPlan":
        """``k`` equal strides, one window at each stride start."""
        if total < 1:
            raise SamplingError(f"cannot sample a {total}-instruction run")
        k = max(1, min(spec.k or 1, total))
        stride = -(-total // k)  # ceil
        starts = [b for b in (i * stride for i in range(k)) if b < total]
        w = spec.w if spec.w is not None else WARMUP
        m = spec.m if spec.m is not None else SYSTEMATIC_MEASURE
        intervals = []
        for i, start in enumerate(starts):
            end = starts[i + 1] if i + 1 < len(starts) else total
            wi = min(w, max(0, total - start - 1))
            mi = max(1, min(m, total - start - wi))
            intervals.append(Interval(index=i, boundary=start, warmup=wi,
                                      measure=mi, weight=end - start))
        return cls(total=total, intervals=tuple(intervals))

    @classmethod
    def phased(cls, total: int,
               features: Sequence[Dict[str, int]],
               spec: SamplingSpec) -> "SamplingPlan":
        """Phase-segmented plan from per-micro-interval feature vectors.

        ``features[j]`` summarises the j-th ``g``-instruction
        micro-interval (the last one may be partial) as produced by
        :func:`repro.sampling.checkpoint.feature_pass`.  Consecutive
        micro-intervals whose feature distance exceeds :data:`THETA`
        start a new phase; phases shorter than :data:`MERGE_DENSE`
        merge forward.  Coverage then scales with run length
        (:func:`coverage_for`):

        * **dense** (coverage >= 0.8, i.e. short runs): every phase is
          measured contiguously end-to-end after one :data:`W_DENSE`
          detailed warmup — one boot per phase, weight = phase length;
        * **sparse** (long runs): a global budget of
          ``max(K_MIN, round(coverage * total / (w + m)))`` windows is
          distributed across phases by largest remainder, each window
          centred in its equal-length chunk of the phase and weighted
          by the chunk — so every window stands for the instructions
          around it, and phase totals are represented exactly.

        Deterministic throughout: no random placement, ties broken by
        position.
        """
        if total < 1:
            raise SamplingError(f"cannot sample a {total}-instruction run")
        n_micro = len(features)
        if n_micro == 0:
            raise SamplingError("no features supplied for phase planning")
        g = spec.g or GRANULARITY
        sizes = [g] * n_micro
        sizes[-1] = total - g * (n_micro - 1)
        if sizes[-1] <= 0 or sizes[-1] > g:
            raise SamplingError(
                f"{n_micro} micro-intervals of {g} instructions do not "
                f"tile a {total}-instruction run")
        rs = [_rates(f) for f in features]
        spans: List[Tuple[int, int]] = []
        start, length = 0, sizes[0]
        for j in range(1, n_micro):
            if _feature_distance(rs[j - 1], rs[j]) > THETA:
                spans.append((start, length))
                start, length = j * g, 0
            length += sizes[j]
        spans.append((start, length))
        spans = _merge_spans(spans, MERGE_DENSE)
        coverage = coverage_for(total)
        intervals: List[Interval] = []
        if coverage >= 0.8:
            w_dense = spec.w if spec.w is not None else W_DENSE
            for i, (s, length) in enumerate(spans):
                b = max(0, s - w_dense)
                intervals.append(Interval(index=i, boundary=b,
                                          warmup=s - b, measure=length,
                                          weight=length))
            return cls(total=total, intervals=tuple(intervals))
        w_win = spec.w if spec.w is not None else W_WIN
        m_win = spec.m if spec.m is not None else M_WIN
        k_target = max(K_MIN, round(coverage * total / (w_win + m_win)))
        quotas = [k_target * length / total for _, length in spans]
        alloc = [int(q) for q in quotas]
        # Largest-remainder seats; zero-window phases get theirs first so
        # no phase is silently unrepresented while another holds several.
        order = sorted(range(len(spans)),
                       key=lambda i: (alloc[i] > 0,
                                      -(quotas[i] - alloc[i])))
        for i in order:
            if sum(alloc) >= k_target:
                break
            alloc[i] += 1
        # Any phase still at zero folds into its predecessor's span so
        # its instructions are represented by a neighbouring window.
        folded: List[Tuple[int, int, int]] = []
        for (s, length), n_w in zip(spans, alloc):
            if n_w == 0 and folded:
                s0, l0, w0 = folded[-1]
                folded[-1] = (s0, l0 + length, w0)
            elif n_w == 0:
                folded.append((s, length, 1))
            else:
                folded.append((s, length, n_w))
        idx = 0
        for s, length, n_w in folded:
            bounds = [s + (length * t) // n_w for t in range(n_w + 1)]
            for t in range(n_w):
                cs, ce = bounds[t], bounds[t + 1]
                m = max(1, min(m_win, ce - cs))
                ws = cs + max(0, (ce - cs - m) // 2)
                b = max(0, ws - w_win)
                intervals.append(Interval(index=idx, boundary=b,
                                          warmup=ws - b, measure=m,
                                          weight=ce - cs))
                idx += 1
        return cls(total=total, intervals=tuple(intervals))

    # -- persistence (checkpoint-store plan entries) --------------------
    def to_payload(self) -> dict:
        return {"total": self.total,
                "intervals": [[iv.boundary, iv.warmup, iv.measure,
                               iv.weight] for iv in self.intervals]}

    @classmethod
    def from_payload(cls, payload: dict) -> "SamplingPlan":
        try:
            intervals = tuple(
                Interval(index=i, boundary=int(b), warmup=int(w),
                         measure=int(m), weight=int(r))
                for i, (b, w, m, r) in enumerate(payload["intervals"]))
            return cls(total=int(payload["total"]), intervals=intervals)
        except (KeyError, TypeError, ValueError) as exc:
            raise SamplingError(
                f"plan payload does not deserialise: {exc}") from None


def _rates(f: Dict[str, int]) -> Tuple[float, float, float]:
    """One micro-interval's feature vector as behaviour *rates*.

    (probe-cache miss rate, taken-branch rate, memory-op fraction) —
    the three axes along which the kernels' data-driven phases move.
    """
    n = max(1, f["n"])
    return (f["miss"] / max(1, f["acc"]),
            f["taken"] / max(1, f["branches"]),
            (f["loads"] + f["stores"]) / n)


def _feature_distance(a: Tuple[float, float, float],
                      b: Tuple[float, float, float]) -> float:
    """Weighted L1 distance between rate vectors.

    Miss rate dominates (it tracks local CPI with correlation 0.86-0.97
    on the registry suite); memory fraction separates compute-heavy
    from memory-heavy stretches; taken rate is a weak tie-breaker.
    """
    return (6.0 * abs(a[0] - b[0]) + 0.5 * abs(a[1] - b[1])
            + 2.0 * abs(a[2] - b[2]))


def coverage_for(total: int) -> float:
    """Detailed-coverage fraction for a ``total``-instruction run.

    Full coverage below :data:`N_DENSE` (dense plans are near-exact and
    still cheap there), the :data:`C_SPARSE` floor above
    :data:`N_SPARSE`, linear in between — so accuracy degrades
    gracefully as runs grow instead of falling off a cliff.
    """
    if total <= N_DENSE:
        return 1.0
    if total >= N_SPARSE:
        return C_SPARSE
    return 1.0 + (total - N_DENSE) / (N_SPARSE - N_DENSE) \
        * (C_SPARSE - 1.0)


def _merge_spans(spans: Sequence[Tuple[int, int]],
                 min_len: int) -> List[Tuple[int, int]]:
    """Merge spans shorter than ``min_len`` into their successor.

    A trailing short span merges backward into the last kept span, so
    the result always tiles the original extent exactly.
    """
    merged: List[Tuple[int, int]] = []
    pend: Optional[Tuple[int, int]] = None
    for start, length in spans:
        if pend is not None:
            start, length = pend[0], pend[1] + length
            pend = None
        if length < min_len:
            pend = (start, length)
        else:
            merged.append((start, length))
    if pend is not None:
        if merged:
            s0, l0 = merged[-1]
            merged[-1] = (s0, l0 + pend[1])
        else:
            merged.append(pend)
    return merged


def is_interval_token(text: Optional[str]) -> bool:
    """True when a sampling string names one interval job (has ``i=``)."""
    return bool(text) and "i=" in str(text)


def parse_interval(text: str) -> Tuple[Interval, int]:
    """Rebuild one interval (weightless) + the run total from its token."""
    fields = _parse_fields(text)
    missing = {"i", "b", "w", "m", "n"} - set(fields)
    if missing:
        raise SamplingError(f"interval token {text!r} is missing "
                            f"{sorted(missing)}")
    total = fields["n"]
    iv = Interval(index=fields["i"], boundary=fields["b"],
                  warmup=fields["w"], measure=fields["m"], weight=0)
    if iv.boundary < 0 or iv.warmup < 0 or iv.measure < 1 \
            or iv.boundary + iv.warmup + iv.measure > total:
        raise SamplingError(f"interval token {text!r} does not fit a "
                            f"{total}-instruction run")
    return iv, total
