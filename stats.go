package cinct

import "fmt"

// QueryStats is the cost account of one executed Search: every counter
// is a unit of work the paper's complexity analysis prices — LF-mapping
// steps bound locate cost, varint decodes bound timestamp-probe cost —
// so the serving layers can meter, log and admission-control queries by
// the work they actually performed rather than by wall clock alone.
//
// Counters accumulate per search unit (shard or delta snapshot) on
// plain fields: a query runs on the one goroutine that pulls its
// results, so no atomics are needed and the hot path stays
// allocation-free. Read the aggregate with Results.Stats.
type QueryStats struct {
	// LFSteps counts LF-mapping steps spent in SA-sample locate walks
	// (at most SampleRate per occurrence).
	LFSteps int64 `json:"lfSteps"`
	// DecodeSteps counts timestamp varint decodes spent in interval
	// probes (at most tempo.BlockSize per probe; delta probes count 1).
	DecodeSteps int64 `json:"decodeSteps"`
	// ShardsProbed counts search units that did work for the answer:
	// their locate ran, or — for a CountOnly query without an interval
	// — their backward search or delta scan gave the count.
	// ShardsSkipped counts every other unit: its suffix range was
	// empty, the resume cursor already lies past its ID range, or the
	// page filled before the stream reached it. The two always sum to
	// the number of units.
	ShardsProbed  int64 `json:"shardsProbed"`
	ShardsSkipped int64 `json:"shardsSkipped"`
	// SummaryPruned counts candidate occurrences rejected by the
	// per-trajectory (min, max) timestamp summary — matches dismissed
	// without touching the compressed timestamp columns.
	SummaryPruned int64 `json:"summaryPruned"`
	// CandidateRows counts occurrences retained as merge candidates
	// after cursor skipping, summary pruning and limit bounding.
	CandidateRows int64 `json:"candidateRows"`
	// DeltaRows counts uncompressed delta trajectories brute-scanned.
	DeltaRows int64 `json:"deltaRows"`
	// HitsEmitted counts hits actually yielded through Results.All.
	HitsEmitted int64 `json:"hitsEmitted"`
}

// add folds o into s.
func (s *QueryStats) add(o QueryStats) {
	s.LFSteps += o.LFSteps
	s.DecodeSteps += o.DecodeSteps
	s.ShardsProbed += o.ShardsProbed
	s.ShardsSkipped += o.ShardsSkipped
	s.SummaryPruned += o.SummaryPruned
	s.CandidateRows += o.CandidateRows
	s.DeltaRows += o.DeltaRows
	s.HitsEmitted += o.HitsEmitted
}

// Cost collapses the account into one scalar — the total decode-side
// work (LF steps, varint decodes, delta rows scanned) — the currency
// the engine's cost histogram and slow-query log report.
func (s QueryStats) Cost() int64 {
	return s.LFSteps + s.DecodeSteps + s.DeltaRows
}

// String renders the account in the fixed key=value form the
// slow-query log emits.
func (s QueryStats) String() string {
	return fmt.Sprintf("lf=%d decode=%d shards=%d skipped=%d pruned=%d cands=%d delta=%d hits=%d",
		s.LFSteps, s.DecodeSteps, s.ShardsProbed, s.ShardsSkipped,
		s.SummaryPruned, s.CandidateRows, s.DeltaRows, s.HitsEmitted)
}

// Stats returns the work account accumulated so far: complete after
// the stream is drained (or immediately for CountOnly queries), a
// snapshot of the work done to date while iteration is still in
// flight. Like the Results it reads through, it is not safe for use
// concurrent with All or Count.
func (r *Results) Stats() QueryStats {
	var s QueryStats
	for i := range r.units {
		s.add(r.units[i].st)
	}
	s.ShardsSkipped = int64(len(r.units)) - s.ShardsProbed
	s.HitsEmitted = int64(r.n)
	return s
}
