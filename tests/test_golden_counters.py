"""Golden per-byte counters: speed work must not move a single count.

The hand-modeled per-byte loops are the paper's instrumentation cost model,
so every optimisation of the memory path must leave what each access *does*
and *counts* untouched.  This suite runs each of the five servers under all
five policies over a fixed request list — every figure row, the server's
attack, then its follow-ups, with a monitor restart before any request that
finds the server dead — and compares the counters behind the Figure 2–6
slowdown columns against values recorded from the reference implementation:

* ``checks_performed`` and the object table's ``lookups`` (the checker's work);
* the address space's ``raw_reads`` / ``raw_writes`` (the program's work);
* the policy's invalid-read/-write counts and its manufactured and discarded
  bytes (the continuation code's work);
* each segment's dirty-block set, i.e. what the next checkpoint would copy.

Regenerate ``EXPECTED`` only for a change that is meant to alter what the
servers do, never for a change to the substrate's speed.
"""

from __future__ import annotations

import pytest

from repro.servers.profile import get_profile
from tests.conftest import POLICY_CLASSES

SERVERS = ("apache", "midnight-commander", "mutt", "pine", "sendmail")
POLICIES = ("standard", "bounds-check", "failure-oblivious", "boundless", "redirect")

#: Benchmark-configuration scale, the fleet benchmark's.
SCALE = 0.25

def _requests(profile):
    """The fixed request list: figure rows, the attack, follow-ups, rows again."""
    rows = [(kind, profile.make_request(kind, 0)) for kind in profile.figure_rows]
    attack = [("attack", profile.make_attack_request())]
    follow_ups = [("follow-up", request) for request in profile.make_follow_ups()]
    return rows + attack + follow_ups + rows


def _dirty_runs(space) -> str:
    """Each segment's dirty blocks as ``name:start-end`` runs, e.g. ``heap:0-3,9``."""
    parts = []
    for segment in space.segments():
        runs = []
        for block in sorted(segment.dirty):
            if runs and runs[-1][1] == block - 1:
                runs[-1][1] = block
            else:
                runs.append([block, block])
        if runs:
            text = ",".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)
            parts.append(f"{segment.name}:{text}")
    return " ".join(parts)


def _record(step: str, server) -> tuple:
    """``(step, checks_performed, lookups, raw_reads, raw_writes, invalid_reads,
    invalid_writes, manufactured_values, discarded_bytes, dirty blocks)``."""
    ctx = server.ctx
    stats = ctx.policy.stats
    return (step, stats.checks_performed, ctx.table.lookups, ctx.space.raw_reads,
            ctx.space.raw_writes, stats.invalid_reads, stats.invalid_writes,
            stats.manufactured_values, stats.discarded_bytes, _dirty_runs(ctx.space))


def golden_counters(server_name: str, policy_name: str) -> list:
    """Boot one server with its attack trigger planted, serve the list, count.

    A record is taken after boot, after every request, and just before every
    monitor restart (whose restore copies back exactly the dirty blocks).
    """
    profile = get_profile(server_name)
    config = profile.build_config(SCALE)
    config.update(profile.make_attack_config())
    server = profile.server_cls(POLICY_CLASSES[policy_name], config=config)
    server.start()
    records = [_record("boot", server)]
    for index, (kind, request) in enumerate(_requests(profile)):
        if not server.alive:
            records.append(_record("before-restart", server))
            server.restart()
        hook = profile.reset_hook_for(kind)
        if hook is not None:
            hook(server, index)
        server.process(request)
        records.append(_record(kind, server))
    return records


#: Recorded from the reference implementation; see the module docstring.
EXPECTED = {
    "apache/standard": [
        ('boot', 0, 0, 1143, 1144, 0, 0, 0, 0, ''),
        ('small', 0, 0, 6305, 6258, 0, 0, 0, 0, 'heap:0-1,16'),
        ('large', 0, 0, 856321, 856210, 0, 0, 0, 0, 'heap:0-16'),
        ('attack', 0, 0, 856409, 856338, 0, 0, 0, 0, 'heap:0-16 stack:0'),
        ('before-restart', 0, 0, 856409, 856338, 0, 0, 0, 0, 'heap:0-16 stack:0'),
        ('follow-up', 0, 0, 6305, 6258, 0, 0, 0, 0, 'heap:0-1,16'),
        ('small', 0, 0, 11467, 11356, 0, 0, 0, 0, 'heap:0-1,16'),
        ('large', 0, 0, 861483, 861308, 0, 0, 0, 0, 'heap:0-16'),
    ],
    "apache/bounds-check": [
        ('boot', 2159, 2159, 1143, 1144, 0, 0, 0, 0, ''),
        ('small', 2161, 2161, 6305, 6258, 0, 0, 0, 0, 'heap:0-1,16'),
        ('large', 2187, 2187, 856321, 856210, 0, 0, 0, 0, 'heap:0-16'),
        ('attack', 2208, 2208, 856329, 856298, 0, 1, 0, 0, 'heap:0-16 stack:0'),
        ('before-restart', 2208, 2208, 856329, 856298, 0, 1, 0, 0, 'heap:0-16 stack:0'),
        ('follow-up', 2161, 2161, 6305, 6258, 0, 0, 0, 0, 'heap:0-1,16'),
        ('small', 2163, 2163, 11467, 11356, 0, 0, 0, 0, 'heap:0-1,16'),
        ('large', 2189, 2189, 861483, 861308, 0, 0, 0, 0, 'heap:0-16'),
    ],
    "apache/failure-oblivious": [
        ('boot', 2159, 2159, 1143, 1144, 0, 0, 0, 0, ''),
        ('small', 2161, 2161, 6305, 6258, 0, 0, 0, 0, 'heap:0-1,16'),
        ('large', 2187, 2187, 856321, 856210, 0, 0, 0, 0, 'heap:0-16'),
        ('attack', 2237, 2237, 856409, 856298, 0, 10, 0, 40, 'heap:0-16 stack:0'),
        ('follow-up', 2239, 2239, 861571, 861396, 0, 10, 0, 40, 'heap:0-16 stack:0'),
        ('small', 2241, 2241, 866733, 866494, 0, 10, 0, 40, 'heap:0-16 stack:0'),
        ('large', 2267, 2267, 1716749, 1716446, 0, 10, 0, 40, 'heap:0-16 stack:0'),
    ],
    "apache/boundless": [
        ('boot', 2159, 2159, 1143, 1144, 0, 0, 0, 0, ''),
        ('small', 2161, 2161, 6305, 6258, 0, 0, 0, 0, 'heap:0-1,16'),
        ('large', 2187, 2187, 856321, 856210, 0, 0, 0, 0, 'heap:0-16'),
        ('attack', 2237, 2237, 856409, 856298, 0, 10, 0, 0, 'heap:0-16 stack:0'),
        ('follow-up', 2239, 2239, 861571, 861396, 0, 10, 0, 0, 'heap:0-16 stack:0'),
        ('small', 2241, 2241, 866733, 866494, 0, 10, 0, 0, 'heap:0-16 stack:0'),
        ('large', 2267, 2267, 1716749, 1716446, 0, 10, 0, 0, 'heap:0-16 stack:0'),
    ],
    "apache/redirect": [
        ('boot', 2159, 2159, 1143, 1144, 0, 0, 0, 0, ''),
        ('small', 2161, 2161, 6305, 6258, 0, 0, 0, 0, 'heap:0-1,16'),
        ('large', 2187, 2187, 856321, 856210, 0, 0, 0, 0, 'heap:0-16'),
        ('attack', 2237, 2237, 856409, 856338, 0, 10, 0, 0, 'heap:0-16 stack:0'),
        ('follow-up', 2239, 2239, 861571, 861436, 0, 10, 0, 0, 'heap:0-16 stack:0'),
        ('small', 2241, 2241, 866733, 866534, 0, 10, 0, 0, 'heap:0-16 stack:0'),
        ('large', 2267, 2267, 1716749, 1716486, 0, 10, 0, 0, 'heap:0-16 stack:0'),
    ],
    "midnight-commander/standard": [
        ('boot', 0, 0, 293, 305, 0, 0, 0, 0, ''),
        ('copy', 0, 0, 525941, 525121, 0, 0, 0, 0, 'heap:0-8,16'),
        ('move', 0, 0, 526101, 525200, 0, 0, 0, 0, 'heap:0-8,16'),
        ('mkdir', 0, 0, 526261, 525260, 0, 0, 0, 0, 'heap:0-8,16'),
        ('delete', 0, 0, 526453, 525358, 0, 0, 0, 0, 'heap:0-8,16'),
        ('attack', 0, 0, 531473, 526710, 0, 0, 0, 0, 'heap:0-8,16 stack:0'),
        ('before-restart', 0, 0, 531473, 526710, 0, 0, 0, 0, 'heap:0-8,16 stack:0'),
        ('follow-up', 0, 0, 453, 384, 0, 0, 0, 0, 'heap:0'),
        ('copy', 0, 0, 526373, 525200, 0, 0, 0, 0, 'heap:0-8,16'),
        ('move', 0, 0, 526565, 525279, 0, 0, 0, 0, 'heap:0-8,16'),
        ('mkdir', 0, 0, 526741, 525339, 0, 0, 0, 0, 'heap:0-8,16'),
        ('delete', 0, 0, 526965, 525437, 0, 0, 0, 0, 'heap:0-8,16'),
    ],
    "midnight-commander/bounds-check": [
        ('boot', 10, 10, 293, 305, 0, 0, 0, 0, ''),
        ('copy', 42, 42, 525941, 525121, 0, 0, 0, 0, 'heap:0-8,16'),
        ('move', 89, 89, 526101, 525200, 0, 0, 0, 0, 'heap:0-8,16'),
        ('mkdir', 117, 117, 526261, 525260, 0, 0, 0, 0, 'heap:0-8,16'),
        ('delete', 167, 167, 526453, 525358, 0, 0, 0, 0, 'heap:0-8,16'),
        ('attack', 220, 220, 528095, 526017, 0, 1, 0, 0, 'heap:0-8,16 stack:0'),
        ('before-restart', 220, 220, 528095, 526017, 0, 1, 0, 0, 'heap:0-8,16 stack:0'),
        ('follow-up', 41, 41, 453, 384, 0, 0, 0, 0, 'heap:0'),
        ('copy', 73, 73, 526373, 525200, 0, 0, 0, 0, 'heap:0-8,16'),
        ('move', 120, 120, 526565, 525279, 0, 0, 0, 0, 'heap:0-8,16'),
        ('mkdir', 148, 148, 526741, 525339, 0, 0, 0, 0, 'heap:0-8,16'),
        ('delete', 198, 198, 526965, 525437, 0, 0, 0, 0, 'heap:0-8,16'),
    ],
    "midnight-commander/failure-oblivious": [
        ('boot', 10, 10, 293, 305, 0, 0, 0, 0, ''),
        ('copy', 42, 42, 525941, 525121, 0, 0, 0, 0, 'heap:0-8,16'),
        ('move', 89, 89, 526101, 525200, 0, 0, 0, 0, 'heap:0-8,16'),
        ('mkdir', 117, 117, 526261, 525260, 0, 0, 0, 0, 'heap:0-8,16'),
        ('delete', 167, 167, 526453, 525358, 0, 0, 0, 0, 'heap:0-8,16'),
        ('attack', 285, 285, 530783, 526561, 34, 149, 34, 149, 'heap:0-8,16 stack:0'),
        ('follow-up', 316, 316, 531007, 526640, 34, 149, 34, 149, 'heap:0-8,16 stack:0'),
        ('copy', 316, 316, 531007, 526640, 34, 149, 34, 149, 'heap:0-8,16 stack:0'),
        ('move', 316, 316, 531007, 526640, 34, 149, 34, 149, 'heap:0-8,16 stack:0'),
        ('mkdir', 316, 316, 531007, 526640, 34, 149, 34, 149, 'heap:0-8,16 stack:0'),
        ('delete', 366, 366, 531263, 526738, 34, 149, 34, 149, 'heap:0-8,16 stack:0'),
    ],
    "midnight-commander/boundless": [
        ('boot', 10, 10, 293, 305, 0, 0, 0, 0, ''),
        ('copy', 42, 42, 525941, 525121, 0, 0, 0, 0, 'heap:0-8,16'),
        ('move', 89, 89, 526101, 525200, 0, 0, 0, 0, 'heap:0-8,16'),
        ('mkdir', 117, 117, 526261, 525260, 0, 0, 0, 0, 'heap:0-8,16'),
        ('delete', 167, 167, 526453, 525358, 0, 0, 0, 0, 'heap:0-8,16'),
        ('attack', 285, 285, 530783, 526561, 786, 149, 0, 0, 'heap:0-8,16 stack:0'),
        ('follow-up', 316, 316, 531007, 526640, 786, 149, 0, 0, 'heap:0-8,16 stack:0'),
        ('copy', 316, 316, 531007, 526640, 786, 149, 0, 0, 'heap:0-8,16 stack:0'),
        ('move', 316, 316, 531007, 526640, 786, 149, 0, 0, 'heap:0-8,16 stack:0'),
        ('mkdir', 316, 316, 531007, 526640, 786, 149, 0, 0, 'heap:0-8,16 stack:0'),
        ('delete', 366, 366, 531263, 526738, 786, 149, 0, 0, 'heap:0-8,16 stack:0'),
    ],
    "midnight-commander/redirect": [
        ('boot', 10, 10, 293, 305, 0, 0, 0, 0, ''),
        ('copy', 42, 42, 525941, 525121, 0, 0, 0, 0, 'heap:0-8,16'),
        ('move', 89, 89, 526101, 525200, 0, 0, 0, 0, 'heap:0-8,16'),
        ('mkdir', 117, 117, 526261, 525260, 0, 0, 0, 0, 'heap:0-8,16'),
        ('delete', 167, 167, 526453, 525358, 0, 0, 0, 0, 'heap:0-8,16'),
        ('attack', 275, 275, 530033, 526710, 0, 14, 0, 0, 'heap:0-8,16 stack:0'),
        ('follow-up', 306, 306, 530257, 526789, 0, 14, 0, 0, 'heap:0-8,16 stack:0'),
        ('copy', 306, 306, 530257, 526789, 0, 14, 0, 0, 'heap:0-8,16 stack:0'),
        ('move', 306, 306, 530257, 526789, 0, 14, 0, 0, 'heap:0-8,16 stack:0'),
        ('mkdir', 306, 306, 530257, 526789, 0, 14, 0, 0, 'heap:0-8,16 stack:0'),
        ('delete', 356, 356, 530513, 526887, 0, 14, 0, 0, 'heap:0-8,16 stack:0'),
    ],
    "mutt/standard": [
        ('boot', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('read', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('move', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('attack', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('follow-up', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('follow-up', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('read', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 168, 524, 0, 0, 0, 0, ''),
        ('move', 0, 0, 168, 524, 0, 0, 0, 0, ''),
    ],
    "mutt/bounds-check": [
        ('boot', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('before-restart', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('read', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('before-restart', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('move', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('before-restart', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('attack', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('before-restart', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('follow-up', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('before-restart', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('follow-up', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('before-restart', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('read', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('before-restart', 334, 334, 123, 442, 0, 1, 0, 0, ''),
        ('move', 334, 334, 123, 442, 0, 1, 0, 0, ''),
    ],
    "mutt/failure-oblivious": [
        ('boot', 445, 445, 699, 763, 0, 82, 0, 82, ''),
        ('read', 445, 445, 699, 763, 0, 82, 0, 82, ''),
        ('move', 445, 445, 699, 763, 0, 82, 0, 82, ''),
        ('attack', 890, 890, 1414, 1478, 0, 164, 0, 164, 'heap:0'),
        ('follow-up', 903, 903, 1607, 1592, 0, 164, 0, 164, 'heap:0'),
        ('follow-up', 955, 955, 1770, 1675, 0, 164, 0, 164, 'heap:0'),
        ('read', 1007, 1007, 1981, 1758, 0, 164, 0, 164, 'heap:0'),
        ('move', 1024, 1024, 2212, 1878, 0, 164, 0, 164, 'heap:0'),
    ],
    "mutt/boundless": [
        ('boot', 445, 445, 699, 763, 0, 82, 0, 0, ''),
        ('read', 445, 445, 699, 763, 0, 82, 0, 0, ''),
        ('move', 445, 445, 699, 763, 0, 82, 0, 0, ''),
        ('attack', 890, 890, 1414, 1478, 0, 164, 0, 0, 'heap:0'),
        ('follow-up', 903, 903, 1607, 1592, 0, 164, 0, 0, 'heap:0'),
        ('follow-up', 955, 955, 1770, 1675, 0, 164, 0, 0, 'heap:0'),
        ('read', 1007, 1007, 1981, 1758, 0, 164, 0, 0, 'heap:0'),
        ('move', 1024, 1024, 2212, 1878, 0, 164, 0, 0, 'heap:0'),
    ],
    "mutt/redirect": [
        ('boot', 445, 445, 539, 845, 0, 82, 0, 0, ''),
        ('read', 445, 445, 539, 845, 0, 82, 0, 0, ''),
        ('move', 445, 445, 539, 845, 0, 82, 0, 0, ''),
        ('attack', 890, 890, 1094, 1642, 0, 164, 0, 0, 'heap:0'),
        ('follow-up', 903, 903, 1287, 1756, 0, 164, 0, 0, 'heap:0'),
        ('follow-up', 955, 955, 1450, 1839, 0, 164, 0, 0, 'heap:0'),
        ('read', 1007, 1007, 1661, 1922, 0, 164, 0, 0, 'heap:0'),
        ('move', 1024, 1024, 1892, 2042, 0, 164, 0, 0, 'heap:0'),
    ],
    "pine/standard": [
        ('boot', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('read', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('compose', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('move', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('attack', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('follow-up', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('follow-up', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('read', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('compose', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('before-restart', 0, 0, 946, 738, 0, 0, 0, 0, ''),
        ('move', 0, 0, 946, 738, 0, 0, 0, 0, ''),
    ],
    "pine/bounds-check": [
        ('boot', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('before-restart', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('read', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('before-restart', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('compose', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('before-restart', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('move', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('before-restart', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('attack', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('before-restart', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('follow-up', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('before-restart', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('follow-up', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('before-restart', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('read', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('before-restart', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('compose', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('before-restart', 276, 276, 607, 646, 0, 1, 0, 0, ''),
        ('move', 276, 276, 607, 646, 0, 1, 0, 0, ''),
    ],
    "pine/failure-oblivious": [
        ('boot', 379, 379, 886, 678, 1, 60, 1, 60, ''),
        ('read', 460, 460, 1268, 852, 1, 60, 1, 60, 'heap:0'),
        ('compose', 532, 532, 1595, 971, 1, 60, 1, 60, 'heap:0'),
        ('move', 874, 874, 2589, 1542, 4, 120, 4, 120, 'heap:0'),
        ('attack', 1215, 1215, 3487, 2024, 7, 180, 7, 180, 'heap:0'),
        ('follow-up', 1342, 1342, 4155, 2244, 7, 180, 7, 180, 'heap:0'),
        ('follow-up', 1414, 1414, 4610, 2363, 7, 180, 7, 180, 'heap:0'),
        ('read', 1541, 1541, 5278, 2583, 7, 180, 7, 180, 'heap:0'),
        ('compose', 1613, 1613, 5685, 2686, 7, 180, 7, 180, 'heap:0'),
        ('move', 1897, 1897, 6783, 3161, 10, 240, 10, 240, 'heap:0'),
    ],
    "pine/boundless": [
        ('boot', 379, 379, 886, 678, 60, 60, 0, 0, ''),
        ('read', 460, 460, 1268, 852, 60, 60, 0, 0, 'heap:0'),
        ('compose', 532, 532, 1595, 971, 60, 60, 0, 0, 'heap:0'),
        ('move', 874, 874, 2589, 1542, 120, 120, 0, 0, 'heap:0'),
        ('attack', 1215, 1215, 3487, 2024, 180, 180, 0, 0, 'heap:0'),
        ('follow-up', 1342, 1342, 4155, 2244, 180, 180, 0, 0, 'heap:0'),
        ('follow-up', 1414, 1414, 4610, 2363, 180, 180, 0, 0, 'heap:0'),
        ('read', 1541, 1541, 5278, 2583, 180, 180, 0, 0, 'heap:0'),
        ('compose', 1613, 1613, 5685, 2686, 180, 180, 0, 0, 'heap:0'),
        ('move', 1897, 1897, 6783, 3161, 240, 240, 0, 0, 'heap:0'),
    ],
    "pine/redirect": [
        ('boot', 378, 378, 853, 738, 0, 60, 0, 0, ''),
        ('read', 459, 459, 1235, 912, 0, 60, 0, 0, 'heap:0'),
        ('compose', 531, 531, 1562, 1031, 0, 60, 0, 0, 'heap:0'),
        ('move', 872, 872, 2523, 1662, 0, 120, 0, 0, 'heap:0'),
        ('attack', 1212, 1212, 3388, 2204, 0, 180, 0, 0, 'heap:0'),
        ('follow-up', 1339, 1339, 4056, 2424, 0, 180, 0, 0, 'heap:0'),
        ('follow-up', 1411, 1411, 4511, 2543, 0, 180, 0, 0, 'heap:0'),
        ('read', 1538, 1538, 5179, 2763, 0, 180, 0, 0, 'heap:0'),
        ('compose', 1610, 1610, 5586, 2866, 0, 180, 0, 0, 'heap:0'),
        ('move', 1893, 1893, 6651, 3401, 0, 240, 0, 0, 'heap:0'),
    ],
    "sendmail/standard": [
        ('boot', 0, 0, 69, 68, 0, 0, 0, 0, ''),
        ('recv_small', 0, 0, 411, 317, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('recv_large', 0, 0, 4893, 4674, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('send_small', 0, 0, 5187, 4891, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('send_large', 0, 0, 9605, 9232, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('attack', 0, 0, 10062, 9835, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('before-restart', 0, 0, 10062, 9835, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('follow-up', 0, 0, 411, 317, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('recv_small', 0, 0, 769, 550, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('recv_large', 0, 0, 5187, 4891, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('send_small', 0, 0, 5481, 5108, 0, 0, 0, 0, 'heap:0 stack:0'),
        ('send_large', 0, 0, 9899, 9449, 0, 0, 0, 0, 'heap:0 stack:0'),
    ],
    "sendmail/bounds-check": [
        ('boot', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('recv_small', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('recv_large', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('send_small', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('send_large', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('attack', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('follow-up', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('recv_small', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('recv_large', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('send_small', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('before-restart', 9, 9, 20, 52, 1, 0, 0, 0, ''),
        ('send_large', 9, 9, 20, 52, 1, 0, 0, 0, ''),
    ],
    "sendmail/failure-oblivious": [
        ('boot', 9, 9, 68, 68, 1, 0, 1, 0, ''),
        ('recv_small', 90, 90, 409, 317, 2, 0, 2, 0, 'heap:0 stack:0'),
        ('recv_large', 4327, 4327, 4890, 4674, 3, 0, 3, 0, 'heap:0 stack:0'),
        ('send_small', 4408, 4408, 5183, 4891, 4, 0, 4, 0, 'heap:0 stack:0'),
        ('send_large', 8645, 8645, 9600, 9232, 5, 0, 5, 0, 'heap:0 stack:0'),
        ('attack', 9182, 9182, 10072, 9659, 6, 192, 6, 192, 'heap:0 stack:0'),
        ('follow-up', 9263, 9263, 10413, 9876, 7, 192, 7, 192, 'heap:0 stack:0'),
        ('recv_small', 9344, 9344, 10770, 10093, 8, 192, 8, 192, 'heap:0 stack:0'),
        ('recv_large', 13581, 13581, 15251, 14434, 9, 192, 9, 192, 'heap:0 stack:0'),
        ('send_small', 13662, 13662, 15608, 14651, 10, 192, 10, 192, 'heap:0 stack:0'),
        ('send_large', 17899, 17899, 20089, 18992, 11, 192, 11, 192, 'heap:0 stack:0'),
    ],
    "sendmail/boundless": [
        ('boot', 9, 9, 68, 68, 1, 0, 1, 0, ''),
        ('recv_small', 90, 90, 409, 317, 2, 0, 2, 0, 'heap:0 stack:0'),
        ('recv_large', 4327, 4327, 4890, 4674, 3, 0, 3, 0, 'heap:0 stack:0'),
        ('send_small', 4408, 4408, 5183, 4891, 4, 0, 4, 0, 'heap:0 stack:0'),
        ('send_large', 8645, 8645, 9600, 9232, 5, 0, 5, 0, 'heap:0 stack:0'),
        ('attack', 9182, 9182, 10072, 9659, 6, 192, 6, 0, 'heap:0 stack:0'),
        ('follow-up', 9263, 9263, 10413, 9876, 7, 192, 7, 0, 'heap:0 stack:0'),
        ('recv_small', 9344, 9344, 10770, 10093, 8, 192, 8, 0, 'heap:0 stack:0'),
        ('recv_large', 13581, 13581, 15251, 14434, 9, 192, 9, 0, 'heap:0 stack:0'),
        ('send_small', 13662, 13662, 15608, 14651, 10, 192, 10, 0, 'heap:0 stack:0'),
        ('send_large', 17899, 17899, 20089, 18992, 11, 192, 11, 0, 'heap:0 stack:0'),
    ],
    "sendmail/redirect": [
        ('boot', 9, 9, 69, 68, 1, 0, 0, 0, ''),
        ('recv_small', 90, 90, 411, 317, 2, 0, 0, 0, 'heap:0 stack:0'),
        ('recv_large', 4327, 4327, 4893, 4674, 3, 0, 0, 0, 'heap:0 stack:0'),
        ('send_small', 4408, 4408, 5187, 4891, 4, 0, 0, 0, 'heap:0 stack:0'),
        ('send_large', 8645, 8645, 9605, 9232, 5, 0, 0, 0, 'heap:0 stack:0'),
        ('attack', 9182, 9182, 10078, 9851, 6, 192, 0, 0, 'heap:0 stack:0'),
        ('follow-up', 9263, 9263, 10420, 10068, 7, 192, 0, 0, 'heap:0 stack:0'),
        ('recv_small', 9344, 9344, 10778, 10285, 8, 192, 0, 0, 'heap:0 stack:0'),
        ('recv_large', 13581, 13581, 15260, 14626, 9, 192, 0, 0, 'heap:0 stack:0'),
        ('send_small', 13662, 13662, 15618, 14843, 10, 192, 0, 0, 'heap:0 stack:0'),
        ('send_large', 17899, 17899, 20100, 19184, 11, 192, 0, 0, 'heap:0 stack:0'),
    ],
}


@pytest.mark.parametrize("server_name", SERVERS)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_counters_match_the_reference(server_name, policy_name):
    expected = EXPECTED[f"{server_name}/{policy_name}"]
    assert golden_counters(server_name, policy_name) == expected
