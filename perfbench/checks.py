"""Output checks for campaign rows (results.jsonl lines).

The simulator is not validated against hardware, so "correct" means two
things here: every row passes the oracles below, which hold on any seed,
and on the reference seed every row's digest equals the one recorded in
reference/<workload>.json (simulated statistics are seed-deterministic
and thread-count invariant, so they repeat exactly on any host).
"""

import hashlib
import json


def row_digest(line):
    """Short SHA-256 of one results.jsonl line."""
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def oracle_failure(row, schedule_slots):
    """Why `row` breaks an oracle, or None when it passes.

    schedule_slots maps "<topology>|<workload label>" to the length of the
    analytic one_to_all / gossip schedule for that topology.
    """
    capacity = row["wavelengths"] * row["couplers"] * row["slots"]
    if not 0 <= row["coupler_transmissions"] <= capacity:
        return "coupler_transmissions outside [0, W*couplers*slots]"
    if row["collisions"] < 0 or row["delivered"] < 0:
        return "negative count"
    workload = row["workload"]
    if workload == "none":
        return None
    if row["makespan"] <= 0:
        return "closed-loop cell reported no makespan"
    if not workload.startswith(("one_to_all", "gossip")):
        return None
    key = row["topology"] + "|" + workload
    if key not in schedule_slots:
        return "no schedule length recorded for " + key
    bound = schedule_slots[key]
    if row["makespan"] < bound:
        return "makespan below the schedule's slot count"
    uncontended = (row["arbitration"] == "token" and row["wavelengths"] == 1
                   and row["timing"] == "none" and row["load"] == 0.0)
    if uncontended and row["makespan"] != bound:
        return "uncontended makespan differs from the schedule's slot count"
    return None


def failing_cells(lines, schedule_slots, reference=None):
    """Maps each failing cell id (or "row N") to the reason it fails.

    `reference`, when given, maps every expected cell id to its digest;
    cells it names that are missing from `lines` fail too.
    """
    failures = {}
    seen = set()
    for index, line in enumerate(lines):
        cell = "row %d" % index
        try:
            row = json.loads(line)
            cell = row["cell_id"]
            seen.add(cell)
            reason = oracle_failure(row, schedule_slots)
        except (ValueError, KeyError, TypeError) as error:
            reason = "malformed row: %r" % (error,)
        if reason is None and reference is not None:
            if reference.get(cell) != row_digest(line):
                reason = "digest differs from the reference"
        if reason is not None:
            failures[cell] = reason
    for cell in sorted(set(reference or ()) - seen):
        failures[cell] = "missing row"
    return failures
