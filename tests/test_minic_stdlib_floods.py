"""Out-of-bounds floods driven through the mini-C stdlib builtins.

``strncat``, ``strchr``, and ``sprintf`` operate on simulated memory through
the instance's accessor, so a call that runs past its buffer produces the
same per-policy behaviours as hand-written loops: termination under the
bounds-check build, logged-and-discarded (or stored, or wrapped) accesses
under the surviving builds, and silent corruption under the standard build.
These floods push hundreds of out-of-bounds bytes through each builtin to
pin that contract under every policy.
"""

from __future__ import annotations

import pytest

from repro.errors import BoundsCheckViolation, ErrorKind, InfiniteLoopGuard, MemoryFault
from repro.memory import cstring
from repro.minic import compile_program
from tests.conftest import POLICY_CLASSES

SURVIVING = ("failure-oblivious", "boundless", "redirect")

STRNCAT_FLOOD = """
char dst[16];

int flood(char *payload) {
    dst[0] = 0;
    strncat(dst, payload, 300);
    return strlen(dst);
}
"""

STRCHR_FLOOD = """
char hay[16];

int flood(int needle) {
    int i;
    for (i = 0; i < 16; i++) { hay[i] = 'A'; }
    if (strchr(hay, needle)) { return 1; }
    return 0;
}
"""

SPRINTF_FLOOD = """
char out[16];

int flood(char *name, int seq) {
    return sprintf(out, "From: %s (msg %d)", name, seq);
}
"""


def run_flood(source, policy_name, function, *args):
    program = compile_program(source)
    instance = program.instantiate(POLICY_CLASSES[policy_name]())
    return instance, instance.call(function, *args)


class TestStrncatFlood:
    """A 200-byte append into a 16-byte destination."""

    PAYLOAD = b"x" * 200

    def test_bounds_check_terminates(self):
        with pytest.raises(BoundsCheckViolation):
            run_flood(STRNCAT_FLOOD, "bounds-check", "flood", self.PAYLOAD)

    @pytest.mark.parametrize("policy", SURVIVING)
    def test_surviving_builds_log_the_flood(self, policy):
        instance, _ = run_flood(STRNCAT_FLOOD, policy, "flood", self.PAYLOAD)
        log = instance.ctx.error_log
        assert log.count_writes() > 0
        assert log.count_by_kind().get(ErrorKind.OUT_OF_BOUNDS, 0) > 0
        instance.ctx.heap.verify_heap()

    def test_failure_oblivious_discards_the_tail(self):
        instance, length = run_flood(
            STRNCAT_FLOOD, "failure-oblivious", "flood", self.PAYLOAD
        )
        # In-bounds bytes landed; everything past the unit was discarded, so
        # the in-memory string never exceeds the destination size.
        assert length >= 15

    def test_standard_build_runs_unchecked(self):
        try:
            instance, _ = run_flood(STRNCAT_FLOOD, "standard", "flood", self.PAYLOAD)
        except MemoryFault:
            return  # walked off the segment: also acceptable for unchecked code
        assert instance.ctx.error_log.total_recorded == 0


class TestStrchrFlood:
    """Searching an unterminated 16-byte buffer scans past its end."""

    def test_bounds_check_terminates(self):
        with pytest.raises(BoundsCheckViolation):
            run_flood(STRCHR_FLOOD, "bounds-check", "flood", ord("Z"))

    @pytest.mark.parametrize("policy", ("failure-oblivious", "boundless"))
    def test_surviving_builds_log_oob_reads(self, policy):
        instance, _ = run_flood(STRCHR_FLOOD, policy, "flood", ord("Z"))
        log = instance.ctx.error_log
        assert log.count_reads() > 0
        assert log.count_by_kind().get(ErrorKind.OUT_OF_BOUNDS, 0) > 0

    @pytest.fixture
    def small_scan_budget(self):
        """Shrink ``cstring.SCAN_LIMIT`` for one test, then restore it.

        The orbit below only ends when ``strchr`` exhausts its scan budget,
        which by default is a million per-byte redirected reads.  4096 bytes
        still orbit the 16-byte unit hundreds of times.
        """
        original = cstring.SCAN_LIMIT
        cstring.SCAN_LIMIT = 4096
        try:
            yield
        finally:
            cstring.SCAN_LIMIT = original

    def test_redirect_wraps_into_an_unterminated_orbit(self, small_scan_budget):
        # The redirect policy maps every out-of-bounds read back inside the
        # unit, so searching 16 'A's for an absent byte never sees a
        # terminator: the scan guard converts the orbit into a hang fault.
        with pytest.raises(InfiniteLoopGuard):
            run_flood(STRCHR_FLOOD, "redirect", "flood", ord("Z"))

    def test_in_bounds_hit_never_leaves_the_unit(self, any_policy_name):
        instance, found = run_flood(STRCHR_FLOOD, any_policy_name, "flood", ord("A"))
        assert found == 1
        assert instance.ctx.error_log.total_recorded == 0


class TestSprintfFlood:
    """%s expansion of a 150-byte name into a 16-byte output buffer."""

    NAME = b"m" * 150

    def test_bounds_check_terminates(self):
        with pytest.raises(BoundsCheckViolation):
            run_flood(SPRINTF_FLOOD, "bounds-check", "flood", self.NAME, 7)

    @pytest.mark.parametrize("policy", SURVIVING)
    def test_surviving_builds_log_the_flood(self, policy):
        instance, _ = run_flood(SPRINTF_FLOOD, policy, "flood", self.NAME, 7)
        log = instance.ctx.error_log
        assert log.count_writes() > 0
        assert log.count_by_kind().get(ErrorKind.OUT_OF_BOUNDS, 0) > 0
        instance.ctx.heap.verify_heap()

    def test_fitting_output_is_clean_everywhere(self, any_policy_name):
        instance, length = run_flood(SPRINTF_FLOOD, any_policy_name, "flood", b"a", 3)
        assert length == len(b"From: a (msg 3)")
        assert instance.ctx.error_log.total_recorded == 0
