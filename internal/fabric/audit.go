package fabric

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/core"
)

// Result auditing: the coordinator's defense against a worker that
// executes but lies — a flaky DIMM, a miscompiled binary, a node whose
// "deterministic" model drifted. The rest of the fabric already assumes
// bit-reproducibility; auditing weaponizes it. A deterministic sample of
// completed measure cells is re-dispatched to a *different* worker as a
// Fresh task (recomputed without the shared artifact store, so the audit
// is an independent derivation, not a cache read-back), and the two
// payload fingerprints are compared. Byte-identity is the only passing
// grade.
//
// Divergence cannot, by itself, name the liar — so arbitration is a
// majority vote: a tie-break execution goes to a third worker, any
// fingerprint reaching two votes wins, and every worker that voted for a
// minority fingerprint is quarantined: it is granted no further cells,
// its leased cells are stolen, and its unaudited completed cells are
// requeued (and revoked from the journal fragment) as suspect. The
// campaign then converges on majority bytes with the same golden digests
// an honest cluster produces.
//
// Costs and bounds: auditing holds sampled cells out of the done count
// until resolution, spends at most maxAuditGrants re-executions per cell,
// and degrades gracefully — no eligible independent auditor (single
// worker, everyone else quarantined or already a voter) abandons the
// audit and accepts the original result ("fabric.audits_abandoned")
// rather than deadlocking the campaign. Majority arbitration needs three
// independent derivations, so a two-worker cluster can detect divergence
// but not attribute it; it logs and abandons.

// maxAuditGrants bounds audit re-executions per cell (original report
// excluded): one audit, one tie-break, one spare for a stolen or failed
// audit lease.
const maxAuditGrants = 3

// auditReport is one worker's vote: the fingerprint (and bytes) it
// derived for a cell.
type auditReport struct {
	worker  string
	sum     [sha256.Size]byte
	payload []byte
}

// Audited reports whether the cell named label falls in campaign id's
// audit sample at fraction frac. The decision is a pure function of
// (id, label, frac) — deterministic across coordinator restarts and
// resumes, so a resumed campaign audits the same cells and operators can
// predict the sample offline.
func Audited(campaignID, label string, frac float64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(campaignID))
	h.Write([]byte{0})
	h.Write([]byte(label))
	// FNV's high bits mix poorly across near-identical labels; run the sum
	// through a splitmix64-style finalizer before thresholding, then take
	// the top 53 bits → uniform float in [0, 1).
	x := h.Sum64()
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < frac
}

func hasVoted(cl *lease, worker string) bool {
	for _, rep := range cl.reports {
		if rep.worker == worker {
			return true
		}
	}
	return false
}

// auditWantedLocked decides, at first-report time, whether to hold
// completed cell i for audit: sampling says yes AND at least one live,
// unquarantined worker other than the reporter exists to re-derive it.
func (c *Coordinator) auditWantedLocked(r *run, i int, reporter string, now time.Time) bool {
	cell := r.g.Cell(i)
	if c.cfg.AuditFrac <= 0 || cell.Kind != core.CellMeasure {
		return false
	}
	if !Audited(r.id, cell.Label, c.cfg.AuditFrac) {
		return false
	}
	for id, ws := range c.workers {
		if id != reporter && !ws.quarantined && now.Sub(ws.lastSeen) <= 3*c.cfg.Lease {
			return true
		}
	}
	return false
}

// anyEligibleAuditorLocked reports whether any live, unquarantined worker
// that has not already voted on cl exists — i.e. whether the audit can
// still make progress.
func (c *Coordinator) anyEligibleAuditorLocked(cl *lease, now time.Time) bool {
	for id, ws := range c.workers {
		if !ws.quarantined && now.Sub(ws.lastSeen) <= 3*c.cfg.Lease && !hasVoted(cl, id) {
			return true
		}
	}
	return false
}

// grantAuditLocked tries to lease an audit re-execution of cell i to
// worker. Returns nil without granting when the worker already voted (a
// worker never audits its own derivation); if on top of that no eligible
// auditor remains anywhere, or the grant budget is spent, the audit is
// abandoned in place so the campaign cannot deadlock on verification.
func (c *Coordinator) grantAuditLocked(r *run, i int, worker string, now time.Time) *Task {
	cl := &r.cells[i]
	if cl.auditRounds >= maxAuditGrants {
		c.abandonAuditLocked(r, i, fmt.Sprintf("%d audit grant(s) spent without a majority", cl.auditRounds))
		return nil
	}
	if hasVoted(cl, worker) {
		if !c.anyEligibleAuditorLocked(cl, now) {
			c.abandonAuditLocked(r, i, "no eligible independent auditor")
		}
		return nil
	}
	cl.auditRounds++
	c.seq++
	cl.audit = auditLeased
	cl.worker, cl.deadline, cl.seq = worker, now.Add(c.cfg.Lease), c.seq
	t := r.task(i)
	t.Fresh = true // the granted copy only: the cell itself stays a normal cell identity
	c.count("fabric.audit_grants")
	return &t
}

// resolveAuditLocked re-tallies after a new vote. Two matching
// fingerprints finalize the cell; minority voters are quarantined first
// (so their other results are requeued before this run can finish); a
// tie returns the cell to the audit queue for a tie-break grant.
func (c *Coordinator) resolveAuditLocked(r *run, i int) {
	cl := &r.cells[i]
	label := r.g.Cell(i).Label
	counts := map[[sha256.Size]byte]int{}
	for _, rep := range cl.reports {
		counts[rep.sum]++
	}
	var winner [sha256.Size]byte
	best := 0
	for s, n := range counts {
		if n > best {
			winner, best = s, n
		}
	}
	if best < 2 {
		// Every vote distinct: no verdict yet. Queue for a tie-break.
		cl.audit = auditWait
		cl.worker = ""
		return
	}
	if len(counts) == 1 {
		c.count("fabric.audits_passed")
	} else {
		c.count("fabric.audits_diverged")
		c.logf("campaign %s: AUDIT DIVERGENCE on %s: %d fingerprint(s) across %d vote(s)",
			short(r.id), label, len(counts), len(cl.reports))
	}
	var win auditReport
	for _, rep := range cl.reports {
		if rep.sum == winner {
			win = rep
			break
		}
	}
	// Quarantine before finalizing: requeuing the liar's other suspect
	// cells must land before this cell's completion can finish the run.
	for _, rep := range cl.reports {
		if rep.sum != winner {
			c.quarantineLocked(rep.worker,
				fmt.Sprintf("result for %s diverged from the %d-vote majority", label, best), cl)
		}
	}
	c.finishCellLocked(r, i, win.worker, win.payload, true)
}

// abandonAuditLocked gives up on verifying cell i and accepts the original
// report: a campaign must complete even when the cluster cannot assemble
// a majority. The cell stays marked unaudited, so a later quarantine of
// its producer still requeues it.
func (c *Coordinator) abandonAuditLocked(r *run, i int, reason string) {
	cl := &r.cells[i]
	label := r.g.Cell(i).Label
	orig := cl.reports[0]
	c.count("fabric.audits_abandoned")
	if len(cl.reports) > 1 {
		sums := map[[sha256.Size]byte]bool{}
		for _, rep := range cl.reports {
			sums[rep.sum] = true
		}
		if len(sums) > 1 {
			c.count("fabric.audits_diverged")
			c.logf("campaign %s: UNRESOLVED AUDIT DIVERGENCE on %s (%s); accepting %s's original result",
				short(r.id), label, reason, orig.worker)
		}
	} else {
		c.logf("campaign %s: abandoning audit of %s (%s)", short(r.id), label, reason)
	}
	c.finishCellLocked(r, i, orig.worker, orig.payload, false)
}

// quarantineLocked banishes a worker whose bytes lost an audit vote: no
// further grants, leased cells stolen, and every unaudited measure cell
// it completed requeued as suspect — with the journal record revoked, so
// a resume recomputes rather than trusts. except (the cell whose audit
// convicted the worker) is being finalized by the caller and is skipped.
func (c *Coordinator) quarantineLocked(worker, reason string, except *lease) {
	ws := c.workers[worker]
	if ws == nil {
		ws = &workerState{id: worker, lastSeen: time.Now()}
		c.workers[worker] = ws
	}
	if ws.quarantined {
		return
	}
	ws.quarantined = true
	c.count("fabric.workers_quarantined")
	c.logf("worker %s QUARANTINED: %s", worker, reason)
	for _, rid := range c.runOrder {
		r := c.runs[rid]
		if r.finished {
			continue
		}
		for i := range r.cells {
			cl := &r.cells[i]
			if cl == except {
				continue
			}
			cell := r.g.Cell(i)
			switch st := r.g.State(i); {
			case st == core.CellRunning && cl.audit == auditNone && cl.worker == worker:
				r.g.Requeue(i)
				cl.worker = ""
				c.count("fabric.cells_requeued_suspect")
			case cl.audit == auditLeased && cl.worker == worker:
				cl.audit = auditWait
				cl.worker = ""
				c.count("fabric.cells_stolen")
			case st == core.CellDone && cl.doneBy == worker && !cl.audited && cell.Kind == core.CellMeasure:
				r.g.Requeue(i)
				cl.worker, cl.doneBy, cl.reports, cl.auditRounds = "", "", nil, 0
				r.jn.Revoke(cell.Label)
				c.count("fabric.cells_requeued_suspect")
				c.logf("campaign %s: requeuing suspect cell %s (completed by quarantined %s)",
					short(r.id), cell.Label, worker)
			}
		}
	}
}

// finishCellLocked is the one way a cell becomes done: records the
// producer, journals the payload, and closes the run when it was the
// last. audited marks results that survived fingerprint verification —
// unaudited ones remain revocable if their producer is later quarantined.
func (c *Coordinator) finishCellLocked(r *run, i int, worker string, payload []byte, audited bool) {
	cl := &r.cells[i]
	cl.worker, cl.audit, cl.doneBy, cl.audited, cl.reports = "", auditNone, worker, audited, nil
	cell := r.g.Cell(i)
	cell.Payload = payload
	r.g.Done(i)
	c.count("fabric.cells_done")
	if c.reg != nil {
		c.reg.Counter("fabric.cells_done." + worker).Inc()
	}
	if ws := c.workers[worker]; ws != nil {
		ws.cellsDone++
	}
	r.jn.Done(cell.Label, payload)
	if r.g.Finished() {
		c.finishLocked(r)
	}
}
