"""Differential suite: span-lowered mini-C versus the tree-walk reference.

``compile_program(source, lower=True)`` rewrites the recognized scanner,
copy, and fill loops onto the accessor's span fast path; ``lower=False``
keeps the frozen per-byte tree-walk.  The two builds must be *observably
identical* under every access policy for everything a program or the
paper's evaluation can see: returned values, interpreter output, the final
memory image of every segment, the error-log event stream and its whole
query surface, the policy's continuation statistics, and the stream-level
telemetry aggregates.  The single intentional exception is
``checks_performed`` — the fast path pays one policy decision per span or
invalid run instead of per byte, which is the documented invariant change.

Hypothesis drives randomized programs through both builds, including the
interesting regimes: out-of-bounds continuation (overflowing fills and
copies, unterminated scans), use-after-free walks, and the redirect
policy's wraparound arithmetic at unit edges.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.memory.pointer import FatPointer
from repro.minic import interpreter as minic_interpreter
from repro.minic.interpreter import TypedPointer
from repro.minic.lower import compile_program, lowered_count
from repro.telemetry.sinks import CounterSink
from tests.conftest import POLICY_CLASSES

POLICY_NAMES = sorted(POLICY_CLASSES)


# -- comparison plumbing -------------------------------------------------------


def _normalize_event(event):
    """Comparable identity of one error-log event across twin contexts."""
    return (
        event.kind, event.access, event.offset, event.length, event.site,
        event.unit_name.split("#")[0], event.unit_size,
    )


def _normalize_result(value):
    """Make return values comparable across twin contexts."""
    if isinstance(value, TypedPointer):
        if value.pointer.is_null:
            return ("ptr", None)
        # Twin contexts are laid out identically, so the absolute address
        # is the pointer's cross-context identity.
        return ("ptr", value.pointer.address)
    if isinstance(value, FatPointer):
        return ("ptr", None if value.is_null else value.address)
    return value


def _observe(instance, outcome):
    """Everything a program can observe after one mini-C call."""
    ctx = instance.ctx
    stats = ctx.policy.stats.as_dict()
    stats.pop("checks_performed")
    log = ctx.error_log
    sequence = getattr(ctx.policy, "sequence", None)
    counters = instance.observed_counters
    return {
        "outcome": outcome,
        "output": bytes(instance.output),
        "segments": [bytes(segment.data) for segment in ctx.space.segments()],
        "events": [_normalize_event(event) for event in log.events()],
        "stats": stats,
        "log_total": log.total_recorded,
        "log_dropped": log.dropped,
        "log_by_site": log.count_by_site(),
        "log_by_kind": log.count_by_kind(),
        "log_reads": log.count_reads(),
        "log_writes": log.count_writes(),
        "log_summary": log.summary(),
        "counters": {
            "by_type": counters.by_type,
            "invalid_total": counters.invalid_total,
            "invalid_by_site": counters.invalid_by_site,
            "invalid_by_kind": counters.invalid_by_kind,
            "invalid_by_access": counters.invalid_by_access,
            "manufactured_bytes": counters.manufactured_bytes,
            "discarded_bytes": counters.discarded_bytes,
            "stored_bytes": counters.stored_bytes,
            "redirected_accesses": counters.redirected_accesses,
        },
        "sequence_produced": sequence.produced if sequence is not None else None,
    }


@pytest.fixture(scope="module", autouse=True)
def shared_loop_limit():
    """Run both builds of every differential under one small loop budget.

    512 is far above every terminating loop the templates below can produce
    (buffers are at most 48 bytes, counts at most 96), and small enough that
    a drawn runaway (an unterminated copy or scan under redirect or Standard)
    hits the guard in milliseconds instead of tree-walking the default
    1,000,000 iterations.  The tree-walk loop counter and the lowered span
    helpers both read the module global at call time, so the guard fires
    after identical byte counts on both builds.
    """
    original = minic_interpreter.LOOP_LIMIT
    minic_interpreter.LOOP_LIMIT = 512
    try:
        yield
    finally:
        minic_interpreter.LOOP_LIMIT = original


def _run_build(source, lower, policy_name, calls):
    """Compile one build, run the call list, and return the observation."""
    program = compile_program(source, lower=lower)
    if lower:
        assert lowered_count(program.unit) > 0, "template produced nothing to lower"
    instance = program.instantiate(POLICY_CLASSES[policy_name]())
    instance.observed_counters = instance.ctx.bus.attach(CounterSink())
    results = []
    try:
        for function, args in calls:
            results.append(_normalize_result(instance.call(function, *args)))
        outcome = ("ok", results)
    except MemoryFault as fault:
        outcome = ("fault", type(fault).__name__, results)
    return _observe(instance, outcome)


def _assert_equivalent(source, policy_name, calls):
    """The span-lowered build must be observably identical to the tree-walk."""
    reference = _run_build(source, False, policy_name, calls)
    fast = _run_build(source, True, policy_name, calls)
    assert fast == reference


# -- strategies ----------------------------------------------------------------

policies = st.sampled_from(POLICY_NAMES)
sizes = st.integers(min_value=1, max_value=48)
bytes_values = st.integers(min_value=1, max_value=255)
counts = st.integers(min_value=0, max_value=96)


# -- program templates ---------------------------------------------------------

SCANNER_SOURCE = """
char buf[{size}];

int prepare(int n, int c) {{
    int i;
    for (i = 0; i < n; i++) {{ buf[i] = c; }}
    return n;
}}

int terminate(int at) {{
    buf[at] = 0;
    return at;
}}

int scan_plain() {{
    char *p;
    p = buf;
    while (*p) p++;
    return p - buf;
}}

int scan_consume() {{
    char *p;
    int c;
    p = buf;
    while ((c = *p++) != 0) {{ }}
    return p - buf;
}}
"""

COPY_SOURCE = """
char src[{src_size}];
char dst[{dst_size}];

int seed(int n, int c) {{
    int i;
    for (i = 0; i < n; i++) {{ src[i] = c; }}
    return n;
}}

int terminate(int at) {{
    src[at] = 0;
    return at;
}}

int copy() {{
    char *d;
    char *s;
    d = dst;
    s = src;
    while ((*d++ = *s++) != 0) {{ }}
    return d - dst;
}}
"""

FILL_SOURCE = """
char buf[{size}];

int fill_while(int n, int c) {{
    char *p;
    p = buf + {start};
    while (n--) *p++ = c;
    return 0;
}}

int fill_for(int n, int c) {{
    int i;
    for (i = 0; i < n; i++) {{ buf[i + {start}] = c; }}
    return n;
}}
"""

UAF_SOURCE = """
int uaf_fill_then_scan(int size, int n, int c) {{
    char *p;
    char *q;
    p = safe_malloc(size);
    free(p);
    q = p;
    while (n--) *q++ = c;
    q = p;
    while (*q) q++;
    return q - p;
}}
"""


class TestScannerLoops:
    """``while (*p) p++`` and ``while ((c = *p++) != 0)`` versus per byte."""

    @settings(max_examples=40, deadline=None)
    @given(policy=policies, size=sizes, fill=counts, value=bytes_values,
           consume=st.booleans(), terminated=st.booleans())
    def test_scan_with_and_without_terminator(self, policy, size, fill, value,
                                              consume, terminated):
        # An over-long fill overflows the global; an unterminated buffer
        # sends the scan past the unit into the policy's OOB continuation.
        fill = min(fill, size + 24)
        calls = [("prepare", (fill, value))]
        if terminated and size:
            calls.append(("terminate", (min(fill, size - 1),)))
        calls.append(("scan_consume" if consume else "scan_plain", ()))
        _assert_equivalent(SCANNER_SOURCE.format(size=size), policy, calls)


class TestCopyLoops:
    """The strcpy idiom ``while ((*d++ = *s++) != 0)`` versus per byte."""

    @settings(max_examples=40, deadline=None)
    @given(policy=policies, src_size=sizes, dst_size=sizes, fill=counts,
           value=bytes_values, terminated=st.booleans())
    def test_copy_including_overflow(self, policy, src_size, dst_size, fill,
                                     value, terminated):
        fill = min(fill, src_size + 16)
        calls = [("seed", (fill, value))]
        if terminated and src_size:
            calls.append(("terminate", (min(fill, src_size - 1),)))
        calls.append(("copy", ()))
        source = COPY_SOURCE.format(src_size=src_size, dst_size=dst_size)
        _assert_equivalent(source, policy, calls)


class TestFillLoops:
    """Counted and indexed fills, including out-of-bounds runs."""

    @settings(max_examples=40, deadline=None)
    @given(policy=policies, size=sizes, start=st.integers(min_value=0, max_value=40),
           count=counts, value=bytes_values, indexed=st.booleans())
    def test_fill_including_overflow(self, policy, size, start, count, value, indexed):
        # ``start`` may begin at or past the unit edge: under the redirect
        # policy that exercises the wraparound arithmetic, under the others
        # the OOB-run batching.
        source = FILL_SOURCE.format(size=size, start=min(start, size + 8))
        function = "fill_for" if indexed else "fill_while"
        _assert_equivalent(source, policy, [(function, (count, value))])


class TestUseAfterFree:
    """Lowered loops walking a freed allocation behave like the tree-walk."""

    @settings(max_examples=25, deadline=None)
    @given(policy=policies, size=sizes, count=counts, value=bytes_values)
    def test_fill_then_scan_after_free(self, policy, size, count, value):
        source = UAF_SOURCE.format()
        _assert_equivalent(source, policy,
                           [("uaf_fill_then_scan", (size, count, value))])


class TestRunawayGuard:
    """A runaway loop hits the same InfiniteLoopGuard on both builds.

    Both builds run under the module's shared ``LOOP_LIMIT`` (see
    :func:`shared_loop_limit`), so the guard must fire after identical byte
    counts.
    """

    @pytest.mark.parametrize("policy", ["failure-oblivious", "boundless"])
    def test_negative_count_fill_exhausts_the_budget(self, policy):
        source = FILL_SOURCE.format(size=8, start=0)
        _assert_equivalent(source, policy, [("fill_while", (-1, 7))])
